/**
 * @file
 * Fused execution engine: gate fusion equivalence, superoperator
 * channel kernels vs the Kraus reference, compiled noisy programs vs
 * the per-gate channel loop, and the batched-training determinism
 * contract (bit-identical results for every thread count).
 */
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;

/** Random mix of fixed, variational and embedding gates. */
circ::Circuit
random_circuit(int qubits, int ops, elv::Rng &rng, int features = 3)
{
    circ::Circuit c(qubits);
    const circ::GateKind fixed1[] = {
        circ::GateKind::H, circ::GateKind::S,   circ::GateKind::Sdg,
        circ::GateKind::X, circ::GateKind::Y,   circ::GateKind::Z,
    };
    const circ::GateKind fixed2[] = {circ::GateKind::CX,
                                     circ::GateKind::CZ,
                                     circ::GateKind::SWAP};
    const circ::GateKind param1[] = {circ::GateKind::RX,
                                     circ::GateKind::RY,
                                     circ::GateKind::RZ,
                                     circ::GateKind::U3};
    for (int n = 0; n < ops; ++n) {
        const int q0 = static_cast<int>(rng.uniform_index(qubits));
        switch (rng.uniform_index(5)) {
        case 0:
        case 1:
            c.add_gate(fixed1[rng.uniform_index(6)], {q0});
            break;
        case 2: {
            int q1 = static_cast<int>(rng.uniform_index(qubits));
            while (q1 == q0)
                q1 = static_cast<int>(rng.uniform_index(qubits));
            c.add_gate(fixed2[rng.uniform_index(3)], {q0, q1});
            break;
        }
        case 3:
            c.add_variational(param1[rng.uniform_index(4)], {q0});
            break;
        default:
            c.add_embedding(
                circ::GateKind::RY, {q0},
                static_cast<int>(rng.uniform_index(features)));
            break;
        }
    }
    c.set_measured({0});
    return c;
}

std::vector<double>
random_values(std::size_t count, elv::Rng &rng)
{
    std::vector<double> v(count);
    for (auto &p : v)
        p = rng.uniform(-M_PI, M_PI);
    return v;
}

double
max_amp_diff(const sim::StateVector &a, const sim::StateVector &b)
{
    double diff = 0.0;
    for (std::size_t i = 0; i < a.dim(); ++i)
        diff = std::max(diff, std::abs(a.amp(i) - b.amp(i)));
    return diff;
}

double
max_element_diff(const sim::DensityMatrix &a, const sim::DensityMatrix &b)
{
    const std::size_t dim = std::size_t{1} << a.num_qubits();
    double diff = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            diff = std::max(diff,
                            std::abs(a.element(r, c) - b.element(r, c)));
    return diff;
}

/** A mixed non-trivial test state. */
sim::DensityMatrix
prepared_state(int qubits)
{
    sim::DensityMatrix rho(qubits);
    circ::Circuit c(qubits);
    for (int q = 0; q < qubits; ++q)
        c.add_gate(circ::GateKind::H, {q});
    for (int q = 0; q + 1 < qubits; ++q)
        c.add_gate(circ::GateKind::CX, {q, q + 1});
    c.add_gate(circ::GateKind::S, {0});
    rho.run(c);
    rho.apply_depolarizing_1q(0.05, qubits - 1); // make it mixed
    return rho;
}

TEST(Fusion, MatchesPerGateExecutionOnRandomCircuits)
{
    elv::Rng rng(41);
    for (int trial = 0; trial < 20; ++trial) {
        const int qubits = 2 + static_cast<int>(rng.uniform_index(4));
        const circ::Circuit c = random_circuit(qubits, 40, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        sim::StateVector plain(qubits), fused(qubits);
        plain.run(c, params, x);
        sim::FusedProgram::compile(c).run(fused, params, x);
        EXPECT_LE(max_amp_diff(plain, fused), 1e-12)
            << "trial " << trial << " qubits " << qubits;
    }
}

TEST(Fusion, MergesAdjacentFixedGates)
{
    // H S H on one qubit + CX with absorbed neighbors: everything fixed
    // fuses; the whole circuit becomes a handful of dense ops.
    circ::Circuit c(2);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::S, {0});
    c.add_gate(circ::GateKind::H, {1});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::Z, {1});
    c.set_measured({0, 1});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    EXPECT_EQ(p.source_ops(), 5u);
    EXPECT_EQ(p.ops().size(), 1u); // all five collapse into one Mat4
    EXPECT_EQ(p.ops_merged(), 4u);
}

TEST(Fusion, ParametricGatesAreBarriers)
{
    circ::Circuit c(1);
    c.add_gate(circ::GateKind::H, {0});
    c.add_variational(circ::GateKind::RZ, {0});
    c.add_gate(circ::GateKind::H, {0});
    c.set_measured({0});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    ASSERT_EQ(p.ops().size(), 3u);
    EXPECT_EQ(p.ops()[1].kind, sim::FusedOp::Kind::Barrier);
    EXPECT_EQ(p.ops_merged(), 0u);
}

TEST(Fusion, LoneCxCzSwapAreTypedEntries)
{
    // A CX/CZ/SWAP that absorbs nothing runs as a permutation/phase
    // entry; one that absorbs or merges a fixed gate stays a dense Mat4.
    circ::Circuit c(4);
    c.add_variational(circ::GateKind::RY, {0});
    c.add_gate(circ::GateKind::CX, {0, 1}); // lone
    c.add_gate(circ::GateKind::H, {2});
    c.add_gate(circ::GateKind::CZ, {2, 3}); // absorbs the H
    c.add_variational(circ::GateKind::RZ, {2});
    c.add_variational(circ::GateKind::RZ, {3});
    c.add_gate(circ::GateKind::SWAP, {3, 2}); // lone
    c.add_variational(circ::GateKind::RX, {0});
    c.add_variational(circ::GateKind::RX, {1});
    c.add_gate(circ::GateKind::CZ, {1, 0}); // merges the X below
    c.add_gate(circ::GateKind::X, {0});
    c.add_variational(circ::GateKind::RY, {2});
    c.add_gate(circ::GateKind::CX, {2, 3}); // lone
    c.set_measured({0});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    using K = sim::FusedOp::Kind;
    std::vector<K> kinds;
    for (const sim::FusedOp &f : p.ops())
        kinds.push_back(f.kind);
    const std::vector<K> want = {K::Barrier, K::CX, K::Two, K::Barrier,
                                 K::Barrier, K::SWAP, K::Barrier,
                                 K::Barrier, K::Two, K::Barrier, K::CX};
    EXPECT_EQ(kinds, want);
    EXPECT_EQ(p.ops()[1].q0, 0);
    EXPECT_EQ(p.ops()[1].q1, 1);
    EXPECT_EQ(p.ops()[5].q0, 3);
    EXPECT_EQ(p.ops()[5].q1, 2);
    EXPECT_EQ(p.ops()[10].q0, 2);
    EXPECT_EQ(p.ops()[10].q1, 3);

    elv::Rng rng(7);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    sim::StateVector plain(4), fused(4);
    plain.run(c, params);
    p.run(fused, params);
    EXPECT_LE(max_amp_diff(plain, fused), 1e-12);
}

TEST(Fusion, CacheReturnsSharedProgramAndClears)
{
    sim::FusionCache::global().clear();
    circ::Circuit c(2);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.set_measured({0});

    const auto a = sim::FusionCache::global().get(c);
    const auto b = sim::FusionCache::global().get(c);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(sim::FusionCache::global().size(), 1u);
    sim::FusionCache::global().clear();
    EXPECT_EQ(sim::FusionCache::global().size(), 0u);
}

TEST(Superop, DepolarizingMatchesKrausLoop1q)
{
    for (const double p : {0.0, 0.013, 0.2}) {
        const auto kraus = noise::depolarizing_1q_kraus(p);
        const sim::Mat4 s = noise::kraus_superop_1q(kraus);
        for (int q = 0; q < 3; ++q) {
            sim::DensityMatrix a = prepared_state(3);
            sim::DensityMatrix b = a;
            a.apply_kraus_1q(kraus, q);
            b.apply_superop_1q(s, q);
            EXPECT_LE(max_element_diff(a, b), 1e-14)
                << "p=" << p << " q=" << q;
        }
    }
}

TEST(Superop, DepolarizingMatchesKrausLoop2q)
{
    const auto kraus = noise::depolarizing_2q_kraus(0.021);
    const sim::Mat16 s = noise::kraus_superop_2q(kraus);
    const int pairs[][2] = {{0, 1}, {1, 0}, {0, 2}, {2, 1}};
    for (const auto &pair : pairs) {
        sim::DensityMatrix a = prepared_state(3);
        sim::DensityMatrix b = a;
        a.apply_kraus_2q(kraus, pair[0], pair[1]);
        b.apply_superop_2q(s, pair[0], pair[1]);
        EXPECT_LE(max_element_diff(a, b), 1e-14)
            << "pair (" << pair[0] << "," << pair[1] << ")";
    }
}

TEST(Superop, ThermalRelaxationMatchesKrausLoop)
{
    const auto kraus =
        noise::thermal_relaxation_kraus(85.0, 60.0, 0.25);
    const sim::Mat4 s = noise::kraus_superop_1q(kraus);
    for (int q = 0; q < 3; ++q) {
        sim::DensityMatrix a = prepared_state(3);
        sim::DensityMatrix b = a;
        a.apply_kraus_1q(kraus, q);
        b.apply_superop_1q(s, q);
        EXPECT_LE(max_element_diff(a, b), 1e-14) << "q=" << q;
    }
}

TEST(Superop, UnitarySuperopMatchesDirectUnitary)
{
    elv::Rng rng(7);
    const sim::Mat2 u1 = sim::gate_matrix_1q(
        circ::GateKind::U3, {rng.uniform(0.0, M_PI),
                             rng.uniform(0.0, 2 * M_PI),
                             rng.uniform(0.0, 2 * M_PI)});
    sim::DensityMatrix a = prepared_state(3);
    sim::DensityMatrix b = a;
    a.apply_1q(u1, 1);
    b.apply_superop_1q(noise::unitary_superop_1q(u1), 1);
    EXPECT_LE(max_element_diff(a, b), 1e-14);

    const sim::Mat4 u2 =
        sim::gate_matrix_2q(circ::GateKind::CX, {0.0, 0.0, 0.0});
    sim::DensityMatrix c = prepared_state(3);
    sim::DensityMatrix d = c;
    c.apply_2q(u2, 2, 0);
    d.apply_superop_2q(noise::unitary_superop_2q(u2), 2, 0);
    EXPECT_LE(max_element_diff(c, d), 1e-14);
}

TEST(Superop, KrausScratchReusePreservesResults)
{
    // Back-to-back generic-Kraus channels reuse the member scratch;
    // results must be independent of prior channel applications.
    const auto depol = noise::depolarizing_1q_kraus(0.03);
    const auto thermal =
        noise::thermal_relaxation_kraus(90.0, 70.0, 0.5);
    sim::DensityMatrix seq = prepared_state(3);
    seq.apply_kraus_1q(depol, 0);
    seq.apply_kraus_1q(thermal, 1);
    seq.apply_kraus_1q(depol, 2);

    sim::DensityMatrix ref = prepared_state(3);
    ref.apply_superop_1q(noise::kraus_superop_1q(depol), 0);
    ref.apply_superop_1q(noise::kraus_superop_1q(thermal), 1);
    ref.apply_superop_1q(noise::kraus_superop_1q(depol), 2);
    EXPECT_LE(max_element_diff(seq, ref), 1e-14);
    EXPECT_NEAR(seq.trace(), 1.0, 1e-12);
}

/** A signed zero picked at random: +0 or -0. */
double
signed_zero(elv::Rng &rng)
{
    return rng.uniform_index(2) ? -0.0 : 0.0;
}

/**
 * A random N x N superoperator with a zero pattern:
 *  0 dense, 1 diagonal only, 2 one nonzero, 3 sparse with all-zero
 *  rows, 4 all zero, 5 half zeros.
 * Zero weights mix +0 and -0 in both parts; some nonzero weights have
 * one zero part, which must not be skipped.
 */
template <typename Mat>
Mat
patterned_superop(int pattern, elv::Rng &rng)
{
    const std::size_t n = std::tuple_size<Mat>::value;
    const std::size_t single_r = rng.uniform_index(n);
    const std::size_t single_c = rng.uniform_index(n);
    Mat m;
    for (std::size_t r = 0; r < n; ++r) {
        const bool zero_row = pattern == 3 && rng.uniform_index(4) == 0;
        for (std::size_t c = 0; c < n; ++c) {
            bool nonzero = true;
            switch (pattern) {
              case 1: nonzero = r == c; break;
              case 2: nonzero = r == single_r && c == single_c; break;
              case 3: nonzero = !zero_row && rng.uniform(0.0, 1.0) < 0.15;
                      break;
              case 4: nonzero = false; break;
              case 5: nonzero = rng.uniform_index(2) == 0; break;
              default: break;
            }
            double re = signed_zero(rng), im = signed_zero(rng);
            if (nonzero) {
                switch (rng.uniform_index(4)) {
                  case 0: re = rng.uniform(-1.0, 1.0); break;
                  case 1: im = rng.uniform(-1.0, 1.0); break;
                  default:
                    re = rng.uniform(-1.0, 1.0);
                    im = rng.uniform(-1.0, 1.0);
                }
            }
            m[r][c] = sim::Amp(re, im);
        }
    }
    return m;
}

/** A generic (non-physical) n-qubit rho with exact and signed zeros. */
sim::DensityMatrix
generic_state(int n, elv::Rng &rng)
{
    sim::StateVector psi(n);
    psi.apply_1q(sim::gate_matrix_1q(circ::GateKind::H, {}), 0);
    sim::DensityMatrix rho(n);
    rho.set_pure(psi);
    // Dense random superops spread weight over every entry.
    for (int q = 0; q < n; ++q)
        rho.apply_superop_1q(patterned_superop<sim::Mat4>(0, rng), q);
    if (n >= 2)
        rho.apply_superop_2q(patterned_superop<sim::Mat16>(5, rng), 0,
                             n - 1);
    return rho;
}

/** rho as its vectorized amplitudes (index r | c << n). */
std::vector<sim::Amp>
vectorized(const sim::DensityMatrix &rho)
{
    const int n = rho.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    std::vector<sim::Amp> v(dim * dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            v[r | (c << n)] = rho.element(r, c);
    return v;
}

/** Dense superoperator pass over every one of the k columns, from
 *  zero in column order; `offset[j]` is local basis state j's index
 *  bits (the gathered kernels' operand convention). */
template <typename Mat>
void
dense_superop_pass(std::vector<sim::Amp> &v, const Mat &s,
                   const std::vector<std::size_t> &offset)
{
    const std::size_t k = offset.size();
    const std::size_t all = offset.back();
    std::vector<sim::Amp> in(k);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i & all)
            continue;
        for (std::size_t c = 0; c < k; ++c)
            in[c] = v[i | offset[c]];
        for (std::size_t r = 0; r < k; ++r) {
            sim::Amp acc(0);
            for (std::size_t c = 0; c < k; ++c)
                acc += s[r][c] * in[c];
            v[i | offset[r]] = acc;
        }
    }
}

TEST(Superop, SparseSkipMatchesDenseBits)
{
    struct TierGuard
    {
        ~TierGuard() { sim::clear_forced_tier(); }
    } guard;
    const int best = static_cast<int>(sim::best_supported_tier());
    elv::Rng rng(61);
    for (int n = 1; n <= 6; ++n) {
        const sim::DensityMatrix start = generic_state(n, rng);
        const std::vector<sim::Amp> v0 = vectorized(start);
        auto check = [&](const std::vector<sim::Amp> &want,
                         const sim::DensityMatrix &got, int tier,
                         const std::string &what) {
            const std::vector<sim::Amp> have = vectorized(got);
            EXPECT_EQ(std::memcmp(want.data(), have.data(),
                                  want.size() * sizeof(sim::Amp)),
                      0)
                << what << " n=" << n << " tier " << tier;
        };
        for (int pattern = 0; pattern <= 5; ++pattern) {
            // 1-qubit superoperators: low mask 1 << q.
            for (int q = 0; q < n; ++q) {
                const sim::Mat4 s = patterned_superop<sim::Mat4>(pattern, rng);
                const std::size_t m0 = std::size_t{1} << q;
                const std::size_t m1 = std::size_t{1} << (q + n);
                std::vector<sim::Amp> want = v0;
                dense_superop_pass(want, s, {0, m1, m0, m0 | m1});
                for (int t = 0; t <= best; ++t) {
                    sim::set_forced_tier(static_cast<sim::KernelTier>(t));
                    sim::DensityMatrix rho = start;
                    rho.apply_superop_1q(s, q);
                    check(want, rho, t,
                          "super1 pattern " + std::to_string(pattern) +
                              " q=" + std::to_string(q));
                }
            }
            // 2-qubit superoperators on every ordered pair: low mask
            // 1 << min(q0, q1).
            for (int q0 = 0; q0 < n; ++q0)
                for (int q1 = 0; q1 < n; ++q1) {
                    if (q0 == q1)
                        continue;
                    const sim::Mat16 s =
                        patterned_superop<sim::Mat16>(pattern, rng);
                    const std::size_t m[4] = {
                        std::size_t{1} << q0, std::size_t{1} << q1,
                        std::size_t{1} << (q0 + n),
                        std::size_t{1} << (q1 + n)};
                    std::vector<std::size_t> offset(16);
                    for (std::size_t j = 0; j < 16; ++j)
                        offset[j] = ((j & 8) ? m[0] : 0) |
                                    ((j & 4) ? m[1] : 0) |
                                    ((j & 2) ? m[2] : 0) |
                                    ((j & 1) ? m[3] : 0);
                    std::vector<sim::Amp> want = v0;
                    dense_superop_pass(want, s, offset);
                    for (int t = 0; t <= best; ++t) {
                        sim::set_forced_tier(
                            static_cast<sim::KernelTier>(t));
                        sim::DensityMatrix rho = start;
                        rho.apply_superop_2q(s, q0, q1);
                        check(want, rho, t,
                              "super2 pattern " + std::to_string(pattern) +
                                  " (" + std::to_string(q0) + "," +
                                  std::to_string(q1) + ")");
                    }
                }
        }
    }
}

TEST(NoisyProgram, MatchesUnfusedChannelLoop)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(19);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;

    noise::NoisyDensitySimulator fused(device);
    noise::NoisyDensitySimulator unfused(device);
    unfused.use_fused_execution(false);

    for (int trial = 0; trial < 5; ++trial) {
        const circ::Circuit c =
            core::generate_candidate(device, config, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        const auto a = fused.run_distribution(c, params, x);
        const auto b = unfused.run_distribution(c, params, x);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-12) << "trial " << trial;

        EXPECT_NEAR(fused.fidelity(c, params, x),
                    unfused.fidelity(c, params, x), 1e-12);
    }
}

TEST(NoisyProgram, MatchesUnfusedOnCliffordReplicas)
{
    // The CNR hot path: all-fixed replicas fuse maximally.
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(29);
    core::CandidateConfig config;
    config.num_qubits = 5;
    config.num_params = 10;
    config.num_embeds = 2;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit candidate =
        core::generate_candidate(device, config, rng);

    noise::NoisyDensitySimulator fused(device);
    noise::NoisyDensitySimulator unfused(device);
    unfused.use_fused_execution(false);
    for (int m = 0; m < 4; ++m) {
        const circ::Circuit replica =
            circ::make_clifford_replica(candidate, rng);
        EXPECT_NEAR(fused.fidelity(replica), unfused.fidelity(replica),
                    1e-12);
    }
}

TEST(NoisyProgram, NoiseScaleZeroIsNoiselessInBothPaths)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(31);
    core::CandidateConfig config;
    config.num_qubits = 3;
    config.num_params = 6;
    config.num_embeds = 2;
    config.num_meas = 1;
    config.num_features = 3;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const auto x = random_values(3, rng);

    noise::NoisyDensitySimulator fused(device, 0.0);
    noise::NoisyDensitySimulator unfused(device, 0.0);
    unfused.use_fused_execution(false);
    const auto a = fused.run_distribution(c, params, x);
    const auto b = unfused.run_distribution(c, params, x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
    EXPECT_NEAR(fused.fidelity(c, params, x), 1.0, 1e-9);
}

/** A generated candidate whose compacted circuit has `qubits` qubits. */
circ::Circuit
candidate_on(const dev::Device &device, int qubits, elv::Rng &rng)
{
    core::CandidateConfig config;
    config.num_qubits = qubits;
    config.num_params = 3 * qubits;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;
    for (int attempt = 0; attempt < 100; ++attempt) {
        const circ::Circuit c = core::generate_candidate(device, config, rng);
        std::vector<int> kept;
        if (c.compacted(kept).num_qubits() == qubits)
            return c;
    }
    ADD_FAILURE() << "no candidate touching exactly " << qubits
                  << " qubits";
    return core::generate_candidate(device, config, rng);
}

void
expect_close(const std::vector<double> &a, const std::vector<double> &b,
             const std::string &context)
{
    ASSERT_EQ(a.size(), b.size()) << context;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12) << context << " outcome " << i;
}

TEST(NoisyProgram, OneShotAndReplayedMatchUnfusedAcrossDevicesAndSizes)
{
    // Every execution mode against the per-gate channel loop:
    // one_shot_fidelity() (cost-model fusion, Replays::Once), and
    // run_distribution / fidelity() cold (compile + cache miss) and warm
    // (cache hit, fused fully), on candidates and their Clifford
    // replicas at 3-6 qubits.
    for (const char *name : {"ibm_perth", "ibmq_jakarta", "ibm_guadalupe"}) {
        const dev::Device device = dev::make_device(name);
        elv::Rng rng(53);
        for (int qubits = 3; qubits <= 6; ++qubits) {
            const std::string context =
                std::string(name) + " " + std::to_string(qubits) + "q";
            const circ::Circuit c = candidate_on(device, qubits, rng);
            const auto params = random_values(
                static_cast<std::size_t>(c.num_params()), rng);
            const auto x = random_values(3, rng);

            noise::NoisyDensitySimulator fused(device);
            noise::NoisyDensitySimulator unfused(device);
            unfused.use_fused_execution(false);

            const auto reference = unfused.run_distribution(c, params, x);
            expect_close(fused.run_distribution(c, params, x), reference,
                         context + " cold");
            expect_close(fused.run_distribution(c, params, x), reference,
                         context + " warm");
            const double fid = unfused.fidelity(c, params, x);
            EXPECT_NEAR(fused.one_shot_fidelity(c, params, x), fid, 1e-12)
                << context;
            EXPECT_NEAR(fused.fidelity(c, params, x), fid, 1e-12) << context;

            for (int m = 0; m < 3; ++m) {
                const circ::Circuit replica =
                    circ::make_clifford_replica(c, rng);
                const double replica_fid = unfused.fidelity(replica);
                EXPECT_NEAR(fused.one_shot_fidelity(replica), replica_fid,
                            1e-12)
                    << context << " replica " << m;
                EXPECT_NEAR(fused.fidelity(replica), replica_fid, 1e-12)
                    << context << " replica " << m;
                const auto replica_ref = unfused.run_distribution(replica);
                expect_close(fused.run_distribution(replica), replica_ref,
                             context + " replica cold");
                expect_close(fused.run_distribution(replica), replica_ref,
                             context + " replica warm");
            }
        }
    }
}

TEST(NoisyProgram, CostModelMergesLessOnlyWhereComposingCostsMore)
{
    // At 6 qubits every merge pays for itself even run once, so the
    // one-shot program is the fully fused one. At 4 qubits a one-shot
    // program keeps its 2-qubit superoperators apart and is longer.
    const dev::Device device = dev::make_device("ibm_guadalupe");
    const noise::NoiseTable table(device, 1.0);
    elv::Rng rng(59);
    for (int qubits : {4, 6}) {
        const circ::Circuit replica = circ::make_clifford_replica(
            candidate_on(device, qubits, rng), rng);
        std::vector<int> kept;
        const circ::Circuit local = replica.compacted(kept);
        const noise::NoisyProgram once = noise::NoisyProgram::compile(
            local, kept, table, noise::NoisyProgram::Replays::Once);
        const noise::NoisyProgram replayed = noise::NoisyProgram::compile(
            local, kept, table, noise::NoisyProgram::Replays::Many);
        EXPECT_EQ(once.size() + once.ops_merged(),
                  replayed.size() + replayed.ops_merged());
        if (qubits == 6) {
            EXPECT_EQ(once.size(), replayed.size());
            EXPECT_EQ(once.ops_merged(), replayed.ops_merged());
        } else {
            EXPECT_GT(once.size(), replayed.size());
            EXPECT_GT(once.ops_merged(), 0u); // 1q runs still merge
        }
    }
}

TEST(NoisyProgram, FilledTableGivesBitIdenticalDistributions)
{
    // Table entries are pure functions of their keys: a simulator whose
    // table other circuits already filled reproduces a fresh one.
    const dev::Device device = dev::make_device("ibm_perth");
    elv::Rng rng(61);
    noise::NoisyDensitySimulator warm(device);
    for (int n = 0; n < 4; ++n) {
        const circ::Circuit other = candidate_on(device, 4, rng);
        (void)warm.one_shot_fidelity(
            circ::make_clifford_replica(other, rng));
        (void)warm.run_distribution(
            other,
            random_values(static_cast<std::size_t>(other.num_params()), rng),
            random_values(3, rng));
    }
    for (int n = 0; n < 3; ++n) {
        const circ::Circuit c = candidate_on(device, 4, rng);
        const auto params =
            random_values(static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);
        const noise::NoisyDensitySimulator fresh(device);
        EXPECT_EQ(fresh.run_distribution(c, params, x),
                  warm.run_distribution(c, params, x));
        const circ::Circuit replica = circ::make_clifford_replica(c, rng);
        const noise::NoisyDensitySimulator fresh_replica(device);
        EXPECT_EQ(fresh_replica.one_shot_fidelity(replica),
                  warm.one_shot_fidelity(replica));
    }
}

TEST(NoisyProgram, ConcurrentFidelityOnOneSimulatorMatchesSerial)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(67);
    std::vector<circ::Circuit> replicas;
    for (int n = 0; n < 8; ++n)
        replicas.push_back(circ::make_clifford_replica(
            candidate_on(device, 3 + n % 3, rng), rng));

    // serial[0]: one_shot_fidelity (the CNR path); serial[1]: the
    // cached fidelity().
    std::vector<double> serial[2];
    {
        const noise::NoisyDensitySimulator sim(device);
        for (const circ::Circuit &r : replicas) {
            serial[0].push_back(sim.one_shot_fidelity(r));
            serial[1].push_back(sim.fidelity(r));
        }
    }

    const noise::NoisyDensitySimulator shared(device);
    constexpr int kThreads = 4;
    std::vector<std::vector<double>> got(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            // Each thread walks the replicas from a different start, so
            // table misses race on every key; odd threads also race on
            // the program cache.
            for (std::size_t i = 0; i < replicas.size(); ++i) {
                const std::size_t k =
                    (i + static_cast<std::size_t>(t) * 2) % replicas.size();
                got[static_cast<std::size_t>(t)].push_back(
                    t % 2 == 0 ? shared.one_shot_fidelity(replicas[k])
                               : shared.fidelity(replicas[k]));
            }
        });
    for (std::thread &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        for (std::size_t i = 0; i < replicas.size(); ++i)
            EXPECT_EQ(got[static_cast<std::size_t>(t)][i],
                      serial[t % 2][(i + static_cast<std::size_t>(t) * 2) %
                                    replicas.size()])
                << "thread " << t << " step " << i;
}

/** A small trainable circuit on the moons features. */
circ::Circuit
training_circuit()
{
    circ::Circuit c(3);
    for (int q = 0; q < 3; ++q)
        c.add_embedding(circ::GateKind::RY, {q}, q % 2);
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RX, {q});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::CX, {1, 2});
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RZ, {q});
    c.set_measured({0});
    return c;
}

TEST(BatchedTraining, BitIdenticalForEveryThreadCount)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 17, 0.1);
    const circ::Circuit c = training_circuit();

    for (const auto backend : {qml::GradientBackend::Adjoint,
                               qml::GradientBackend::ParameterShift}) {
        qml::TrainConfig serial;
        serial.epochs = 2;
        serial.batch_size = 5; // deliberately not dividing the set
        serial.seed = 3;
        serial.backend = backend;
        serial.threads = 1;
        const qml::TrainResult ref =
            qml::train_circuit(c, bench.train, serial);

        for (int threads = 2; threads <= 4; ++threads) {
            qml::TrainConfig tc = serial;
            tc.threads = threads;
            const qml::TrainResult got =
                qml::train_circuit(c, bench.train, tc);
            ASSERT_EQ(ref.params.size(), got.params.size());
            for (std::size_t i = 0; i < ref.params.size(); ++i)
                EXPECT_EQ(ref.params[i], got.params[i])
                    << "threads=" << threads << " param " << i;
            ASSERT_EQ(ref.loss_history.size(),
                      got.loss_history.size());
            for (std::size_t e = 0; e < ref.loss_history.size(); ++e)
                EXPECT_EQ(ref.loss_history[e], got.loss_history[e])
                    << "threads=" << threads << " epoch " << e;
            EXPECT_EQ(ref.circuit_executions, got.circuit_executions)
                << "threads=" << threads;
        }
    }
}

/**
 * Four qubits mixing fusable fixed gates with every gate kind the
 * trainer differentiates (RX/RY/RZ/U3/CRY). Qubit 3 never couples to
 * the measured qubit: its two ops and one parameter slot lie outside
 * the measurement lightcone.
 */
circ::Circuit
pinned_training_circuit()
{
    circ::Circuit c(4);
    for (int q = 0; q < 3; ++q)
        c.add_gate(circ::GateKind::H, {q});
    c.add_embedding(circ::GateKind::RY, {0}, 0);
    c.add_embedding(circ::GateKind::RY, {1}, 1);
    c.add_embedding(circ::GateKind::RZ, {2}, 0);
    c.add_variational(circ::GateKind::RX, {0});
    c.add_variational(circ::GateKind::U3, {1});
    c.add_variational(circ::GateKind::RY, {2});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::S, {1});
    c.add_gate(circ::GateKind::CZ, {1, 2});
    c.add_variational(circ::GateKind::CRY, {0, 1});
    c.add_variational(circ::GateKind::RZ, {0});
    c.add_variational(circ::GateKind::RY, {1});
    c.add_variational(circ::GateKind::RX, {3});
    c.add_gate(circ::GateKind::H, {3});
    c.set_measured({0});
    return c;
}

TEST(BatchedTraining, PinnedToParentCommit)
{
    // Bit patterns recorded from the trainer that looked its fused
    // program up in the process-wide FusionCache on every sample and
    // copied a state per parameter slot in the adjoint sweep. Compiling
    // once per call and reusing sweep scratch must not move a single
    // bit, for either backend, at any thread count.
    struct Pinned
    {
        qml::GradientBackend backend;
        std::uint64_t executions;
        std::array<std::uint64_t, 9> params;
        std::array<std::uint64_t, 3> loss;
    };
    const Pinned pinned[] = {
        {qml::GradientBackend::Adjoint, 180,
         {0xbff1262d10e8163eULL, 0x3ff5023105080debULL,
          0x3fc683335dcc6630ULL, 0x3ff6444331573ef2ULL,
          0xc00452c74a0f81c1ULL, 0x3ffa79f9280ccb3dULL,
          0xc0065038c32b4a32ULL, 0xc000bada71d5de5eULL,
          0xbfb8d490ee9ef81eULL},
         {0x3fedeaa4b4f10cc0ULL, 0x3fe6d6a1f71923d7ULL,
          0x3fe2b77fe4a26b2bULL}},
        {qml::GradientBackend::ParameterShift, 3780,
         {0xbff1262d10e8163fULL, 0x3ff5023104fb4265ULL,
          0x3fc6833366063ff7ULL, 0x3ff6444330bf52f6ULL,
          0xc00452c74a72cee9ULL, 0x3ffa79f9282006ceULL,
          0xc0065038c30d6033ULL, 0xc000bada71b64db0ULL,
          0xbfb8d490f045a791ULL},
         {0x3fedeaa4b4f10cc1ULL, 0x3fe6d6a1f71923d7ULL,
          0x3fe2b77fe4a26b2bULL}},
    };

    const qml::Benchmark bench = qml::make_benchmark("moons", 17, 0.1);
    const circ::Circuit c = pinned_training_circuit();
    for (const Pinned &pin : pinned) {
        for (const int threads : {1, 4}) {
            qml::TrainConfig tc;
            tc.epochs = 3;
            tc.batch_size = 7; // deliberately not dividing the set
            tc.learning_rate = 0.05;
            tc.seed = 5;
            tc.backend = pin.backend;
            tc.threads = threads;
            const qml::TrainResult got =
                qml::train_circuit(c, bench.train, tc);
            const std::string where =
                std::string(pin.backend == qml::GradientBackend::Adjoint
                                ? "adjoint"
                                : "parameter-shift") +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(got.circuit_executions, pin.executions) << where;
            ASSERT_EQ(got.params.size(), pin.params.size()) << where;
            for (std::size_t i = 0; i < pin.params.size(); ++i)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.params[i]),
                          pin.params[i])
                    << where << " param " << i;
            ASSERT_EQ(got.loss_history.size(), pin.loss.size()) << where;
            for (std::size_t e = 0; e < pin.loss.size(); ++e)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.loss_history[e]),
                          pin.loss[e])
                    << where << " epoch " << e;
        }
    }
}

TEST(ExecutionCount, DatasetVariantCountsEachSampleOnce)
{
    // 35 samples in batches of 8: five batches (8+8+8+8+3); the
    // steps x batch_size formula would bill 5 x 8 = 40 samples.
    EXPECT_EQ(qml::parameter_shift_execution_count_dataset(10, 2, 35, 8),
              21ull * 2ull * 35ull);
    // When batch_size divides the set the two formulas agree.
    EXPECT_EQ(qml::parameter_shift_execution_count_dataset(10, 2, 32, 8),
              qml::parameter_shift_execution_count(10, 2, 4, 8));
    // A batch cap limits the per-epoch sample count.
    EXPECT_EQ(
        qml::parameter_shift_execution_count_dataset(10, 2, 35, 8, 2),
        21ull * 2ull * 16ull);
    // A cap beyond the dataset size changes nothing.
    EXPECT_EQ(
        qml::parameter_shift_execution_count_dataset(10, 2, 35, 8, 9),
        21ull * 2ull * 35ull);
}

TEST(ExecutionCount, TrainerMatchesDatasetFormula)
{
    // The parameter-shift trainer's tally must equal the closed form
    // regardless of simulator threading.
    const qml::Benchmark bench = qml::make_benchmark("moons", 23, 0.05);
    const circ::Circuit c = training_circuit();
    qml::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 4;
    tc.backend = qml::GradientBackend::ParameterShift;
    tc.seed = 9;
    tc.threads = 3;
    const qml::TrainResult result =
        qml::train_circuit(c, bench.train, tc);
    EXPECT_EQ(result.circuit_executions,
              qml::parameter_shift_execution_count_dataset(
                  c.num_params(), tc.epochs,
                  static_cast<int>(bench.train.samples.size()),
                  tc.batch_size));
}

} // namespace
