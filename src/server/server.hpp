/**
 * @file
 * Crash-safe search-as-a-service core: a bounded job queue with
 * admission control, worker threads that run Elivagar searches under
 * per-job isolation (seeded RNG streams via the job seed, a thread
 * quota handed to the search pool, a wall-clock deadline enforced by
 * cooperative cancellation), and durable state so a `kill -9` at any
 * instant loses no accepted job.
 *
 * Durability model — two layers of append-only checksummed records:
 *
 *  - the *manifest* (`<data_dir>/jobs.manifest`) records every accepted
 *    job spec and every terminal state transition. On startup the
 *    manifest is replayed: jobs whose last state is non-terminal are
 *    re-queued.
 *  - each job's *checkpoint journal* (`<data_dir>/job-N.journal`, the
 *    PR 1 search journal) records per-candidate stages. A re-queued job
 *    resumes from it, so the recovered SearchResult is bit-identical to
 *    an uninterrupted run.
 *
 * Overload ladder (graceful degradation, in escalation order):
 *
 *  1. queue depth >= 1/2 capacity: new jobs start with half their
 *     thread quota; >= 3/4 capacity: quota 1.
 *  2. queue full: submissions are rejected with an explicit
 *     retry-after estimate (admission control — memory stays bounded).
 *  3. queue full + higher-priority arrival: the lowest-priority queued
 *     job is shed with an explicit Rejected state (poll/watch sees
 *     "rejected: shed under overload" — never a silent drop).
 *
 * Shutdown: drain() stops admission and gives in-flight jobs a
 * deadline; jobs that miss it are cancelled in-process but keep their
 * Queued/Running manifest state, so the next start resumes them.
 * stop_hard() (and the destructor) is the crash-equivalent path used
 * by tests: abandon everything immediately, recording nothing.
 *
 * Thread safety: every public method is safe to call from any thread
 * (the TCP transport calls them from per-connection threads).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "server/job.hpp"

namespace elv::srv {

/** Daemon-level knobs. */
struct ServerConfig
{
    /** Directory for the manifest, journals, results and reports. */
    std::string data_dir;
    /** Bounded queue: submissions past this are rejected, never held. */
    std::size_t queue_capacity = 16;
    /** Concurrent jobs (worker threads). */
    int workers = 1;
    /**
     * Total simulator threads shared by concurrent jobs; each job's
     * quota is carved from this by the overload ladder. 0 = one per
     * hardware thread.
     */
    int thread_budget = 0;
    /** Enable the global metrics registry for the metrics endpoint. */
    bool metrics = false;
    /** Retry-after floor reported on rejected submissions (ms). */
    double default_retry_after_ms = 1000.0;

    void check() const;
};

/** Outcome of a submission: accepted with an id, or explicit reject. */
struct SubmitOutcome
{
    bool accepted = false;
    /** Job id ("job-N"), valid when accepted. */
    std::string id;
    /** Rejection reason, valid when not accepted. */
    std::string error;
    /** Suggested client backoff before retrying (0 = do not retry). */
    double retry_after_ms = 0.0;
};

/** Point-in-time public view of one job. */
struct JobStatusSnapshot
{
    std::string id;
    JobSpec spec;
    JobState state = JobState::Queued;
    /** Current pipeline phase while running ("generate", "cnr", ...). */
    std::string phase;
    /** Per-candidate progress within the phase. */
    std::size_t done = 0, total = 0;
    /** Failure text / cancel reason / shed explanation. */
    std::string detail;
    /** Thread quota the job runs with (0 until scheduled). */
    int thread_quota = 0;
    /** Job was re-queued from the manifest after a restart. */
    bool recovered = false;
    /** The search replayed journaled stages when it ran. */
    bool search_resumed = false;
    /** Composite score of the winner (valid when completed). */
    double best_score = 0.0;
    /** Path of the job's trace artifact (empty until written). */
    std::string trace_path;
};

/** The service core (transport-agnostic; see tcp.hpp for the wire). */
class Server
{
  public:
    /** Recovers from `config.data_dir` and starts the workers. */
    explicit Server(const ServerConfig &config);

    /** Equivalent to stop_hard(): abandoned jobs stay resumable. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Admission-controlled submit; never blocks on a full queue. */
    SubmitOutcome submit(const JobSpec &spec);

    /** Snapshot of one job, or nullopt for an unknown id. */
    std::optional<JobStatusSnapshot> status(const std::string &id) const;

    /** Snapshots of every known job, in submission order. */
    std::vector<JobStatusSnapshot> jobs() const;

    /**
     * Cancel a queued or running job (cooperative; a running job
     * unwinds at its next checkpoint). True unless the id is unknown;
     * cancelling a terminal job is a harmless no-op.
     */
    bool cancel(const std::string &id);

    /**
     * The completed job's result document (one JSON object), or
     * nullopt when the job is unknown or not completed.
     */
    std::optional<std::string> result_json(const std::string &id) const;

    /** Server-wide health: queue, workers, lifetime tallies. */
    std::string health_json() const;

    /** health + a snapshot of the global metrics registry. */
    std::string metrics_json() const;

    /**
     * Operational events after sequence `cursor` (0 = oldest held),
     * newest-clipped to `limit`. Readers page with the returned
     * last_seq and detect loss via first_seq.
     */
    obs::EventSlice events_since(std::uint64_t cursor,
                                 std::size_t limit) const;

    /** events_since rendered as one JSON object. */
    std::string events_json(std::uint64_t cursor,
                            std::size_t limit) const;

    /**
     * Graceful shutdown: stop admission, let in-flight jobs run for up
     * to `deadline_sec`, cancel the rest (they stay resumable), then
     * stop the workers. Queued jobs are left queued for the next start.
     */
    void drain(double deadline_sec);

    /**
     * Crash-equivalent stop for tests: cancel in-flight jobs and join
     * workers WITHOUT recording terminal states, exactly as if the
     * process had died. A new Server on the same data_dir re-queues
     * and resumes everything that was in flight.
     */
    void stop_hard();

    /** @name Change notification (watch/streaming support) @{ */
    /** Monotonic counter bumped on every observable state change. */
    std::uint64_t change_epoch() const;
    /**
     * Block until the epoch differs from `last_seen`, the timeout
     * elapses, or the server stops; returns the current epoch.
     */
    std::uint64_t wait_for_change(std::uint64_t last_seen,
                                  double timeout_sec) const;
    /** @} */

    /**
     * Hold (true) or resume (false) job dispatch. While held, workers
     * start no queued job; admission, shedding and cancellation carry
     * on. Tests use it to pin a queue state a worker would otherwise
     * race to drain.
     */
    void hold_dispatch(bool held);

    /** Simulator threads currently granted to running jobs. */
    int threads_in_use() const;

    bool draining() const;
    const ServerConfig &config() const { return config_; }

  private:
    struct JobRecord
    {
        std::string id;
        std::uint64_t number = 0;
        JobSpec spec;
        JobState state = JobState::Queued;
        std::string phase;
        std::size_t done = 0, total = 0;
        std::string detail;
        int thread_quota = 0;
        bool recovered = false;
        bool search_resumed = false;
        /** Set under mutex_ before the token trips for shutdown, so
         * run_job can tell "abandoned" from a real cancel. */
        bool abandoned = false;
        double best_score = 0.0;
        std::shared_ptr<elv::CancelToken> token;
        /** @name Per-job trace context (epoch = admission time) @{ */
        std::chrono::steady_clock::time_point submitted_at;
        std::shared_ptr<obs::SpanLog> trace;
        /** Open phase span while running (mutated under mutex_). */
        std::string trace_phase;
        double trace_phase_start_us = 0.0;
        /** The .trace.json artifact exists (links in status/result). */
        bool trace_written = false;
        /** @} */
    };
    using RecordPtr = std::shared_ptr<JobRecord>;

    void recover_from_manifest();
    void append_manifest_locked(const std::string &body);
    void record_state_locked(JobRecord &rec, JobState state,
                             const std::string &detail);
    void bump_epoch_locked();
    /** Overload-ladder thread quota for the given queue depth. */
    int quota_for_depth_locked(std::size_t depth) const;
    /** Emit a ladder.level event when the queue depth crosses a rung. */
    void note_ladder_locked();
    double retry_after_estimate_locked() const;
    RecordPtr pop_best_locked();
    void worker_loop();
    void run_job(const RecordPtr &rec);
    void stop_workers(bool abandon_running);

    std::string job_path(const std::string &id,
                         const char *suffix) const;
    JobStatusSnapshot snapshot_locked(const JobRecord &rec) const;

    ServerConfig config_;
    int thread_budget_ = 1;

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    std::map<std::uint64_t, RecordPtr> records_; // keyed by number
    std::vector<RecordPtr> queue_;
    std::vector<std::thread> workers_;
    std::uint64_t next_number_ = 1;
    std::uint64_t epoch_ = 0;
    int running_ = 0;
    int threads_in_use_ = 0;
    bool draining_ = false;
    bool stopping_ = false;
    bool dispatch_held_ = false;
    bool stopped_ = false;

    /** Lifetime tallies (health endpoint). */
    std::uint64_t submitted_ = 0, completed_ = 0, failed_ = 0,
                  cancelled_ = 0, rejected_ = 0, shed_ = 0,
                  recovered_ = 0;
    /** EWMA of completed-job wall time (retry-after estimates). */
    double job_ms_ewma_ = 0.0;

    /** Operational event ring (its own lock; safe under mutex_). */
    obs::EventRing events_{256};
    /** Current degradation rung (0 full, 1 half, 2 min quota). */
    int ladder_level_ = 0;

    std::chrono::steady_clock::time_point start_time_;
};

} // namespace elv::srv
