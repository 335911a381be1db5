/**
 * @file
 * End-to-end Elivagar pipeline benchmark.
 *
 * One iteration is one cold, one-shot classifier build, as elivagar_cli
 * runs it: synthesize the dataset, build the device and the noisy
 * simulator (setup), elivagar_search (search), train_circuit (train),
 * then noiseless plus noisy evaluate on the test split (infer). Every
 * iteration clears the process-wide FusionCache, builds fresh
 * simulators and derives its dataset and search seeds from the
 * workload seed plus the iteration index, so no circuit-keyed cache
 * spans iterations.
 *
 * Untraced mode times whole iterations only, plus repeats of the short
 * setup and infer stages on the same inputs. Around the stages it runs
 * a host-speed probe: a fixed workload of the benchmark's own, outside
 * every timed interval, which run.py uses to report times at a
 * reference host speed. Traced mode drives the
 * same stages serially through the public per-candidate evaluators
 * elivagar_search itself runs, records a span around every call,
 * snapshots the obs::Registry at each span boundary for per-layer
 * counter deltas, and writes the spans once, at exit. Each traced
 * round also runs an untraced iteration of the same seeds, so the
 * per-candidate ranking can be compared bit for bit and the tracing
 * overhead measured.
 *
 * Output: one JSON object per line on stdout (provenance, one line per
 * iteration, a summary). pipebench/run.py aggregates and checks them.
 *
 *   pipeline_bench --workload NAME --seed N --seconds S
 *                  [--trace-out FILE] [--iterations K]
 */
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/clifford_replica.hpp"
#include "circuit/serialize.hpp"
#include "common/rng.hpp"
#include "common/runinfo.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "noise/noise_model.hpp"
#include "obs/metrics.hpp"
#include "qml/classifier.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"
#include "sim/fusion.hpp"

namespace {

using namespace elv;
using Clock = std::chrono::steady_clock;

/** One benchmark workload (see BENCHMARK.json for why each exists). */
struct Workload
{
    const char *name;
    const char *benchmark;
    const char *device;
    int candidates;
    int epochs;
    double scale;
    /** Search and training at all usable cores (else one thread). */
    bool multithread;
    /**
     * Cold runs of infer per untraced iteration: the pipeline's own plus
     * repeats, so a short infer stage gets more samples per run than the
     * iterations alone give.
     */
    int infer_runs;
};

constexpr Workload kWorkloads[] = {
    {"pipeline-4q", "mnist-4", "ibm_perth", 32, 40, 0.3, false, 8},
    {"pipeline-6q-mt", "mnist-10", "ibm_guadalupe", 32, 10, 0.1, true, 1},
};

/** Cold runs of setup per untraced iteration (it takes milliseconds). */
constexpr int kSetupRuns = 5;

/** Threads of the multi-threaded workload: usable cores, at most 4. */
constexpr int kMaxThreads = 4;

/** Host-probe slices run at each of an untraced iteration's probe points. */
constexpr int kProbeSlices = 3;

/** Test samples the inference probe times after its cold sample. */
constexpr std::size_t kWarmProbeSamples = 64;

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Seed streams of one iteration. */
enum Stream : std::uint64_t { kData = 1, kSearch = 2, kProbe = 3 };

std::uint64_t
derive_seed(std::uint64_t workload_seed, int iteration, Stream stream)
{
    return mix64(mix64(workload_seed) ^
                 mix64(static_cast<std::uint64_t>(iteration) * 16 +
                       stream));
}

/** FNV-1a over a string, printed as a hex digest. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

int
usable_cores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * One slice of the host-speed probe: wall seconds of a fixed workload
 * of the benchmark's own, in three parts of about equal time that
 * mirror the kinds of work the pipeline does: libm rotations applied to
 * a 4-qubit statevector, dense 16x16 complex matrix products (a 4-qubit
 * density matrix), and small heap allocations with string keys. Nothing
 * in src/ runs here, so a change to the program cannot move it; only
 * the host's speed can.
 */
double
probe_slice()
{
    constexpr int kDim = 16;
    const auto t0 = Clock::now();

    double re[kDim] = {1.0}, im[kDim] = {};
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    for (int g = 0; g < 16000; ++g) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const double theta =
            static_cast<double>(state >> 11) * 0x1.0p-53 * 6.283185307179586;
        const double c = std::cos(theta), s = std::sin(theta);
        const int m = 1 << static_cast<int>(state >> 62);
        for (int i = 0; i < kDim; ++i) {
            if (i & m)
                continue;
            const double ar = re[i], ai = im[i];
            const double br = re[i | m], bi = im[i | m];
            re[i] = c * ar + s * bi;
            im[i] = c * ai - s * br;
            re[i | m] = c * br + s * ai;
            im[i | m] = c * bi - s * ar;
        }
    }

    std::vector<double> ar(kDim * kDim), ai(kDim * kDim), br(kDim * kDim),
        bi(kDim * kDim), cr(kDim * kDim), ci(kDim * kDim);
    for (int k = 0; k < kDim * kDim; ++k) {
        ar[k] = 0.01 * (k % 7);
        ai[k] = 0.02 * (k % 5);
        br[k] = 0.03 * (k % 3);
        bi[k] = 0.01 * (k % 11);
    }
    for (int rep = 0; rep < 280; ++rep) {
        for (int i = 0; i < kDim; ++i)
            for (int j = 0; j < kDim; ++j) {
                double sr = 0.0, si = 0.0;
                for (int k = 0; k < kDim; ++k) {
                    const int a = i * kDim + k, b = k * kDim + j;
                    sr += ar[a] * br[b] - ai[a] * bi[b];
                    si += ar[a] * bi[b] + ai[a] * br[b];
                }
                cr[i * kDim + j] = sr;
                ci[i * kDim + j] = si;
            }
        std::swap(ar[rep % (kDim * kDim)], cr[(rep * 7) % (kDim * kDim)]);
        ai[rep % (kDim * kDim)] = 0.5 * ci[(rep * 3) % (kDim * kDim)];
    }

    std::size_t count = 0;
    for (int r = 0; r < 150; ++r) {
        std::vector<std::vector<double>> rows;
        std::vector<std::string> names;
        for (int k = 0; k < 64; ++k) {
            rows.emplace_back(16 + (k * 7) % 48, 1.0 * k);
            names.push_back("gate_" + std::to_string(k * r));
            count += rows.back().size() +
                     std::hash<std::string>{}(names.back()) % 3;
        }
    }

    const double elapsed = seconds(t0, Clock::now());
    volatile double sink = re[0] + im[kDim - 1] + cr[0] +
                           static_cast<double>(count);
    (void)sink;
    return elapsed;
}

/**
 * Host-speed probe point: kProbeSlices slices, each run on `threads`
 * threads at once (the iteration's own thread count) and recorded as
 * the mean over the threads. Returns the CPU seconds the probe used,
 * which the caller keeps out of the iteration's cpu_s.
 */
double
probe_host(int threads, std::vector<double> &slices)
{
    const double cpu0 = cpu_seconds();
    for (int k = 0; k < kProbeSlices; ++k) {
        std::vector<double> times(static_cast<std::size_t>(threads));
        std::vector<std::thread> helpers;
        for (int t = 1; t < threads; ++t)
            helpers.emplace_back([&times, t] {
                times[static_cast<std::size_t>(t)] = probe_slice();
            });
        times[0] = probe_slice();
        for (std::thread &h : helpers)
            h.join();
        double sum = 0.0;
        for (const double v : times)
            sum += v;
        slices.push_back(sum / threads);
    }
    return cpu_seconds() - cpu0;
}

/** Minimal JSON object writer for one output line. */
class JsonLine
{
  public:
    JsonLine &
    num(const char *key, double v)
    {
        return raw(key, number(v));
    }
    JsonLine &
    str(const char *key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    JsonLine &
    nums(const char *key, const std::vector<double> &v)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            out += number(v[i]);
        }
        return raw(key, out + "]");
    }
    JsonLine &
    strs(const char *key, const std::vector<std::string> &v)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            out += quote(v[i]);
        }
        return raw(key, out + "]");
    }
    JsonLine &
    raw(const char *key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ",") + std::string("\"") + key +
                 "\":" + value;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }
    void print() const { std::printf("%s\n", text().c_str()); }

  private:
    /** Full precision; non-finite values become null (a failed check). */
    static std::string
    number(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
    static std::string
    quote(const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
        }
        return quoted + "\"";
    }

    std::string body_;
};

/**
 * Bench-side spans: name, start, end, parent, iteration, plus the
 * obs::Registry counter deltas over the span. Kept in memory and
 * written once by write().
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Open a span; the registry snapshot precedes the start stamp. */
    int
    open(const char *name, int parent, int iteration)
    {
        Span span;
        span.name = name;
        span.parent = parent;
        span.iteration = iteration;
        span.before = obs::Registry::global().snapshot();
        span.start = seconds(origin_, Clock::now());
        spans_.push_back(std::move(span));
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close a span; the registry snapshot follows the end stamp. */
    void
    close(int id)
    {
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = seconds(origin_, Clock::now());
        const obs::MetricsSnapshot after =
            obs::Registry::global().snapshot();
        for (const auto &counter : after.counters) {
            const std::uint64_t delta =
                counter.value - span.before.counter(counter.name);
            if (delta != 0)
                span.counters.emplace_back(counter.name, delta);
        }
        span.before = {};
    }

    void
    arg(int id, const char *key, double value)
    {
        spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
    }

    bool
    write(const std::string &path, const std::string &provenance) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"provenance\":%s,\"spans\":[\n",
                     provenance.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            JsonLine line;
            line.num("id", static_cast<double>(i))
                .num("parent", s.parent)
                .num("iteration", s.iteration)
                .str("name", s.name)
                .num("start_s", s.start)
                .num("end_s", s.end);
            JsonLine args, counters;
            for (const auto &[key, value] : s.args)
                args.num(key.c_str(), value);
            for (const auto &[key, value] : s.counters)
                counters.num(key.c_str(), static_cast<double>(value));
            line.raw("args", args.text()).raw("counters", counters.text());
            std::fprintf(f, "%s%s\n", line.text().c_str(),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        int iteration = 0;
        double start = 0.0;
        double end = 0.0;
        obs::MetricsSnapshot before;
        std::vector<std::pair<std::string, double>> args;
        std::vector<std::pair<std::string, std::uint64_t>> counters;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span over one call. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, int parent, int iteration)
        : log_(log), id_(log.open(name, parent, iteration))
    {
    }
    ~SpanScope() { log_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }
    void arg(const char *key, double value) { log_.arg(id_, key, value); }

  private:
    SpanLog &log_;
    int id_;
};

/** The set-up of one iteration: data, device, noisy simulator. */
struct Inputs
{
    Inputs(const Workload &w, std::uint64_t data_seed)
        : bench(qml::make_benchmark(w.benchmark, data_seed, w.scale)),
          device(dev::make_device(w.device)), noisy(device)
    {
    }

    const qml::Benchmark bench;
    const dev::Device device;
    const noise::NoisyDensitySimulator noisy;
};

/** elivagar_cli's search configuration for a benchmark. */
core::ElivagarConfig
search_config(const Workload &w, const qml::BenchmarkSpec &spec,
              std::uint64_t seed, int threads)
{
    core::ElivagarConfig config;
    config.num_candidates = w.candidates;
    config.candidate.num_qubits = spec.qubits;
    config.candidate.num_params = spec.params;
    config.candidate.num_embeds =
        std::min(spec.params, std::max(spec.dim, spec.params / 4));
    config.candidate.num_meas = spec.meas;
    config.candidate.num_features = spec.dim;
    config.seed = seed;
    config.threads = threads;
    return config;
}

qml::TrainConfig
train_config(const Workload &w, std::uint64_t search_seed, int threads)
{
    qml::TrainConfig tc;
    tc.epochs = w.epochs;
    tc.threads = threads;
    tc.seed = search_seed + 1;
    return tc;
}

/** What one iteration produced, timed and checked. */
struct Outcome
{
    const char *mode = "";
    int iteration = 0;
    int threads = 1;
    double setup_s = 0.0;
    double search_s = 0.0;
    double train_s = 0.0;
    double infer_s = 0.0;
    double total_s = 0.0;
    double cpu_s = 0.0;
    std::string pool_digest;
    std::string best_digest;
    std::vector<double> cnr;
    std::vector<double> repcap;
    std::vector<double> score;
    std::vector<double> survivors;
    /** Host-probe slice seconds (untraced iterations only). */
    std::vector<double> probe_s;
    /** Times of the stage repeats (untraced iterations only). */
    std::vector<double> repeat_setup_s;
    std::vector<double> repeat_infer_s;
    double best_score = 0.0;
    double cnr_executions = 0.0;
    double repcap_executions = 0.0;
    double train_executions = 0.0;
    double acc_ideal = 0.0;
    double acc_noisy = 0.0;
    std::vector<std::string> failures;
    std::string error;

    void
    print() const
    {
        JsonLine line;
        line.str("type", "iteration")
            .str("mode", mode)
            .num("iteration", iteration)
            .num("threads", threads);
        if (error.empty())
            line.num("setup_s", setup_s)
                .num("search_s", search_s)
                .num("train_s", train_s)
                .num("infer_s", infer_s)
                .num("total_s", total_s)
                .num("cpu_s", cpu_s)
                .str("pool_digest", pool_digest)
                .str("best_digest", best_digest)
                .nums("cnr", cnr)
                .nums("repcap", repcap)
                .nums("score", score)
                .nums("survivors", survivors)
                .num("best_score", best_score)
                .num("cnr_executions", cnr_executions)
                .num("repcap_executions", repcap_executions)
                .num("train_executions", train_executions)
                .num("acc_ideal", acc_ideal)
                .num("acc_noisy", acc_noisy)
                .nums("probe_s", probe_s)
                .nums("repeat_setup_s", repeat_setup_s)
                .nums("repeat_infer_s", repeat_infer_s);
        else
            line.str("error", error);
        line.strs("failures", failures).print();
        std::fflush(stdout);
    }
};

/**
 * Record the ranking and run the checks that hold at any seed: CNR in
 * [0, 1], finite RepCap and scores, at least one survivor, and the
 * chosen circuit is the first argmax of the score.
 */
void
record_ranking(Outcome &out,
               const std::vector<core::CandidateRecord> &candidates,
               const circ::Circuit &best, double best_score)
{
    std::string pool;
    int best_index = -1;
    for (std::size_t n = 0; n < candidates.size(); ++n) {
        const core::CandidateRecord &r = candidates[n];
        pool += circ::to_text_line(r.circuit) + "\n";
        out.cnr.push_back(r.cnr);
        out.repcap.push_back(r.repcap);
        out.score.push_back(r.score);
        if (!(r.cnr >= 0.0 && r.cnr <= 1.0))
            out.failures.push_back("cnr out of [0,1] at candidate " +
                                   std::to_string(n));
        if (!std::isfinite(r.repcap) || !std::isfinite(r.score))
            out.failures.push_back("non-finite score at candidate " +
                                   std::to_string(n));
        if (r.rejected_by_cnr)
            continue;
        out.survivors.push_back(static_cast<double>(n));
        if (best_index < 0 ||
            r.score > candidates[static_cast<std::size_t>(best_index)].score)
            best_index = static_cast<int>(n);
    }
    out.pool_digest = digest(pool);
    out.best_digest = digest(circ::to_text(best));
    out.best_score = best_score;
    if (best_index < 0) {
        out.failures.push_back("no surviving candidate");
        return;
    }
    const core::CandidateRecord &argmax =
        candidates[static_cast<std::size_t>(best_index)];
    if (argmax.score != best_score ||
        circ::to_text(argmax.circuit) != circ::to_text(best))
        out.failures.push_back("best circuit is not the score argmax");
}

void
check_accuracy(Outcome &out, const qml::TrainResult &trained)
{
    for (const double loss : trained.loss_history)
        if (!std::isfinite(loss))
            out.failures.push_back("non-finite training loss");
    if (!(out.acc_ideal >= 0.0 && out.acc_ideal <= 1.0 &&
          out.acc_noisy >= 0.0 && out.acc_noisy <= 1.0))
        out.failures.push_back("accuracy out of [0,1]");
}

qml::DistributionFn
noisy_distribution(const noise::NoisyDensitySimulator &noisy)
{
    return [&noisy](const circ::Circuit &c, const std::vector<double> &p,
                    const std::vector<double> &x) {
        return noisy.run_distribution(c, p, x);
    };
}

/** Noiseless and noisy accuracy of a trained circuit on a test split. */
std::pair<double, double>
infer(const qml::Dataset &test, const noise::NoisyDensitySimulator &noisy,
      const circ::Circuit &circuit, const std::vector<double> &params)
{
    const qml::EvalResult ideal = qml::evaluate(circuit, params, test);
    const qml::EvalResult hw =
        qml::evaluate(circuit, params, test, noisy_distribution(noisy));
    return {ideal.accuracy, hw.accuracy};
}

/**
 * One untraced iteration: the pipeline exactly as elivagar_cli runs it,
 * then repeats of its setup (kSetupRuns in all) and of its infer
 * (infer_runs in all) on the same inputs. Each repeat is as cold as the
 * pipeline's own stage (fresh simulators) and each inference must match
 * the first. The host probe runs before the pipeline, between search
 * and train, between train and infer, and after the repeats, outside
 * every timed interval.
 */
Outcome
run_untraced(const Workload &w, std::uint64_t workload_seed, int iteration,
             int threads)
{
    Outcome out;
    out.mode = "untraced";
    out.iteration = iteration;
    out.threads = threads;
    const std::uint64_t search_seed =
        derive_seed(workload_seed, iteration, kSearch);
    sim::FusionCache::global().clear();

    probe_host(threads, out.probe_s);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const Inputs in(w, derive_seed(workload_seed, iteration, kData));
    const auto t1 = Clock::now();
    const core::SearchResult found = core::elivagar_search(
        in.device, in.bench.train,
        search_config(w, in.bench.spec, search_seed, threads));
    const auto t2 = Clock::now();
    double probe_cpu = probe_host(threads, out.probe_s);
    const auto t2_resume = Clock::now();
    const qml::TrainResult trained =
        qml::train_circuit(found.best_circuit, in.bench.train,
                           train_config(w, search_seed, threads));
    const auto t3 = Clock::now();
    probe_cpu += probe_host(threads, out.probe_s);
    const auto t3_resume = Clock::now();
    const auto [acc_ideal, acc_noisy] =
        infer(in.bench.test, in.noisy, found.best_circuit, trained.params);
    const auto t4 = Clock::now();
    out.cpu_s = cpu_seconds() - cpu0 - probe_cpu;
    probe_host(threads, out.probe_s);

    out.setup_s = seconds(t0, t1);
    out.search_s = seconds(t1, t2);
    out.train_s = seconds(t2_resume, t3);
    out.infer_s = seconds(t3_resume, t4);
    out.total_s = out.setup_s + out.search_s + out.train_s + out.infer_s;
    record_ranking(out, found.candidates, found.best_circuit,
                   found.best_score);
    out.cnr_executions = static_cast<double>(found.cnr_executions);
    out.repcap_executions = static_cast<double>(found.repcap_executions);
    out.train_executions = static_cast<double>(trained.circuit_executions);
    out.acc_ideal = acc_ideal;
    out.acc_noisy = acc_noisy;
    check_accuracy(out, trained);

    for (int r = 1; r < kSetupRuns; ++r) {
        const auto a = Clock::now();
        const Inputs again(w, derive_seed(workload_seed, iteration, kData));
        out.repeat_setup_s.push_back(seconds(a, Clock::now()));
    }
    for (int r = 1; r < w.infer_runs; ++r) {
        const noise::NoisyDensitySimulator fresh(in.device);
        const auto a = Clock::now();
        const std::pair<double, double> acc = infer(
            in.bench.test, fresh, found.best_circuit, trained.params);
        out.repeat_infer_s.push_back(seconds(a, Clock::now()));
        if (acc != std::make_pair(acc_ideal, acc_noisy))
            out.failures.push_back("repeated inference differs from the first");
    }
    probe_host(threads, out.probe_s);
    return out;
}

/**
 * Noise compile/apply probe, outside the iteration span: for each CNR
 * replica of each candidate, time the construction of a fresh
 * NoisyDensitySimulator, its first fidelity() call (NoisyProgram
 * compile plus apply) and a repeat call on the same simulator (apply
 * only: a program-cache hit). The two calls must agree exactly.
 */
void
probe_noise(SpanLog &log, int iteration, const dev::Device &device,
            const std::vector<core::CandidateRecord> &candidates,
            int replicas, std::uint64_t seed, Outcome &out)
{
    SpanScope span(log, "noise.probe", -1, iteration);
    double first_s = 0.0, repeat_s = 0.0;
    std::vector<double> construct_ms;
    for (std::size_t n = 0; n < candidates.size(); ++n) {
        elv::Rng rng(mix64(seed ^ mix64(n)));
        for (int m = 0; m < replicas; ++m) {
            const circ::Circuit replica =
                circ::make_clifford_replica(candidates[n].circuit, rng);
            const auto t0 = Clock::now();
            const noise::NoisyDensitySimulator sim(device);
            const auto t1 = Clock::now();
            const double cold = sim.fidelity(replica);
            const auto t2 = Clock::now();
            const double warm = sim.fidelity(replica);
            const auto t3 = Clock::now();
            construct_ms.push_back(1e3 * seconds(t0, t1));
            first_s += seconds(t1, t2);
            repeat_s += seconds(t2, t3);
            if (cold != warm || !(cold >= 0.0 && cold <= 1.0))
                out.failures.push_back(
                    "replica fidelity differs between compile and cache "
                    "hit");
        }
    }
    span.arg("replicas", static_cast<double>(construct_ms.size()));
    span.arg("first_s", first_s);
    span.arg("repeat_s", repeat_s);
    span.arg("construct_ms_p50", median(construct_ms));
}

/**
 * Inference cold/warm probe: on a fresh simulator, the first noisy
 * test sample compiles the trained circuit's NoisyProgram; later
 * samples hit the program cache. Both must reproduce their first run.
 */
void
probe_inference(SpanLog &log, int iteration, const dev::Device &device,
                const circ::Circuit &circuit,
                const std::vector<double> &params,
                const qml::Dataset &test, Outcome &out)
{
    SpanScope span(log, "qml.infer.probe", -1, iteration);
    const noise::NoisyDensitySimulator sim(device);
    const auto t0 = Clock::now();
    const std::vector<double> cold =
        sim.run_distribution(circuit, params, test.samples[0]);
    const auto t1 = Clock::now();
    std::vector<double> warm_us;
    const std::size_t count =
        std::min(test.samples.size(), kWarmProbeSamples + 1);
    for (std::size_t i = 1; i < count; ++i) {
        const auto a = Clock::now();
        sim.run_distribution(circuit, params, test.samples[i]);
        warm_us.push_back(1e6 * seconds(a, Clock::now()));
    }
    if (sim.run_distribution(circuit, params, test.samples[0]) != cold)
        out.failures.push_back(
            "noisy inference differs between compile and cache hit");
    span.arg("cold_us", 1e6 * seconds(t0, t1));
    span.arg("warm_us_p50", median(warm_us));
    span.arg("warm_samples", static_cast<double>(warm_us.size()));
}

/**
 * One traced iteration: the same pipeline, serially, through the
 * per-candidate evaluators, with a span around every call and the
 * registry on. Probes follow, outside the iteration span.
 */
Outcome
run_traced(const Workload &w, std::uint64_t workload_seed, int iteration,
           SpanLog &log)
{
    Outcome out;
    out.mode = "traced";
    out.iteration = iteration;
    const std::uint64_t search_seed =
        derive_seed(workload_seed, iteration, kSearch);
    sim::FusionCache::global().clear();
    obs::Registry::global().set_enabled(true);

    std::optional<Inputs> in;
    std::vector<core::CandidateRecord> records;
    core::ElivagarConfig config;
    qml::TrainResult trained;
    const circ::Circuit *best = nullptr;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    Clock::time_point t1, t2, t3;
    {
        SpanScope root(log, "iteration", -1, iteration);
        const int id = root.id();
        {
            SpanScope span(log, "setup", id, iteration);
            in.emplace(w, derive_seed(workload_seed, iteration, kData));
        }
        t1 = Clock::now();
        config = search_config(w, in->bench.spec, search_seed, 1);
        const auto n_cand = static_cast<std::size_t>(config.num_candidates);
        records.resize(n_cand);
        for (std::size_t n = 0; n < n_cand; ++n) {
            SpanScope span(log, "core.generate", id, iteration);
            records[n].circuit =
                core::generate_search_candidate(in->device, config, n);
        }
        const exec::FaultConfig faults = core::prepare_fault_config(config);
        for (std::size_t n = 0; n < n_cand; ++n) {
            SpanScope span(log, "core.cnr", id, iteration);
            const core::CandidateCnr cnr = core::evaluate_candidate_cnr(
                in->device, records[n].circuit, config, faults, n);
            records[n].cnr = cnr.cnr;
            out.cnr_executions += static_cast<double>(cnr.executions);
            span.arg("executions", static_cast<double>(cnr.executions));
        }
        {
            SpanScope span(log, "core.select", id, iteration);
            core::apply_cnr_selection(records, config);
        }
        for (std::size_t n = 0; n < n_cand; ++n) {
            if (records[n].rejected_by_cnr)
                continue;
            SpanScope span(log, "core.repcap", id, iteration);
            const core::CandidateRepCap rc = core::evaluate_candidate_repcap(
                records[n].circuit, in->bench.train, config, n);
            records[n].repcap = rc.repcap;
            out.repcap_executions += static_cast<double>(rc.executions);
            span.arg("executions", static_cast<double>(rc.executions));
        }
        {
            SpanScope span(log, "core.rank", id, iteration);
            for (core::CandidateRecord &r : records) {
                if (r.rejected_by_cnr)
                    continue;
                r.score = core::composite_score(r.cnr, r.repcap, config);
                if (!best || r.score > out.best_score) {
                    best = &r.circuit;
                    out.best_score = r.score;
                }
            }
        }
        if (!best)
            throw std::runtime_error("no surviving candidate");
        t2 = Clock::now();
        {
            SpanScope span(log, "qml.train", id, iteration);
            trained = qml::train_circuit(*best, in->bench.train,
                                         train_config(w, search_seed, 1));
            span.arg("executions",
                     static_cast<double>(trained.circuit_executions));
            span.arg("epochs", static_cast<double>(w.epochs));
        }
        t3 = Clock::now();
        {
            SpanScope span(log, "qml.infer.ideal", id, iteration);
            out.acc_ideal =
                qml::evaluate(*best, trained.params, in->bench.test)
                    .accuracy;
        }
        {
            SpanScope span(log, "qml.infer.noisy", id, iteration);
            out.acc_noisy =
                qml::evaluate(*best, trained.params, in->bench.test,
                              noisy_distribution(in->noisy))
                    .accuracy;
        }
    }
    const auto t4 = Clock::now();
    out.cpu_s = cpu_seconds() - cpu0;
    obs::Registry::global().set_enabled(false);
    out.setup_s = seconds(t0, t1);
    out.search_s = seconds(t1, t2);
    out.train_s = seconds(t2, t3);
    out.infer_s = seconds(t3, t4);
    out.total_s = seconds(t0, t4);
    out.train_executions = static_cast<double>(trained.circuit_executions);
    record_ranking(out, records, *best, out.best_score);
    check_accuracy(out, trained);

    probe_noise(log, iteration, in->device, records,
                config.cnr.num_replicas,
                derive_seed(workload_seed, iteration, kProbe), out);
    probe_inference(log, iteration, in->device, *best, trained.params,
                    in->bench.test, out);
    return out;
}

/** Run one iteration, turning an exception into a failed Outcome. */
template <typename Fn>
Outcome
guarded(const char *mode, int iteration, Fn &&fn)
{
    try {
        return fn();
    } catch (const std::exception &error) {
        obs::Registry::global().set_enabled(false);
        Outcome out;
        out.mode = mode;
        out.iteration = iteration;
        out.error = error.what();
        return out;
    }
}

std::string
provenance(const Workload &w, int threads)
{
    JsonLine line;
    line.str("workload", w.name)
        .str("kernel_tier", sim::kernel_tier_name(sim::active_tier()))
        .str("best_kernel_tier",
             sim::kernel_tier_name(sim::best_supported_tier()))
        .num("threads", threads)
        .num("nproc", usable_cores())
        .str("build_type", PIPEBENCH_BUILD_TYPE)
        .str("version", elv::version_string());
    return line.text();
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: pipeline_bench --workload NAME --seed "
                 "N --seconds S [--trace-out FILE] [--iterations K]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double budget_s = 10.0;
    int iterations = 0; // 0 = as many as fit in the budget
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    workload = &w;
            if (!workload)
                usage("unknown workload");
        } else if (arg == "--seed") {
            seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            budget_s = std::atof(value);
        } else if (arg == "--iterations") {
            iterations = std::atoi(value);
        } else if (arg == "--trace-out") {
            trace_out = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!workload)
        usage("--workload is required");
    const Workload &w = *workload;
    const int threads =
        w.multithread ? std::min(kMaxThreads, usable_cores()) : 1;
    const bool traced = !trace_out.empty();
    const std::string prov = provenance(w, threads);
    std::printf("{\"type\":\"provenance\",\"provenance\":%s}\n",
                prov.c_str());

    // Rounds run while the next one is expected to finish inside the
    // budget (at least one). A traced round is an untraced iteration
    // at the workload's thread count, a serial untraced one when that
    // count is above one, then the traced iteration and its probes.
    // Warm-up: the first probe slices of a process pay for page faults
    // and thread start-up.
    std::vector<double> warm_up;
    probe_host(threads, warm_up);
    const auto origin = Clock::now();
    SpanLog log(origin);
    for (int round = 0;; ++round) {
        const double elapsed = seconds(origin, Clock::now());
        if (iterations > 0 ? round >= iterations
                           : round > 0 && elapsed + elapsed / round >
                                              budget_s)
            break;
        guarded("untraced", round, [&] {
            return run_untraced(w, seed, round, threads);
        }).print();
        if (!traced)
            continue;
        if (threads > 1)
            guarded("untraced", round, [&] {
                return run_untraced(w, seed, round, 1);
            }).print();
        guarded("traced", round, [&] {
            return run_traced(w, seed, round, log);
        }).print();
    }

    if (traced && !log.write(trace_out, prov)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
    }
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    JsonLine summary;
    summary.str("type", "summary")
        .num("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
    summary.print();
    return 0;
}
