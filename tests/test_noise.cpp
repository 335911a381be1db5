/**
 * @file
 * Noise-substrate tests: Kraus completeness of every channel, readout
 * confusion, noisy density-matrix execution (trace preservation, fidelity
 * degradation with depth and with noise scale), Pauli twirl sanity, and
 * cross-backend agreement between the exact density-matrix executor and
 * the stochastic stabilizer executor on Clifford circuits.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "circuit/builders.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "obs/metrics.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "stabilizer/tableau.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::noise;
using elv::dev::make_device;

/** Growth of counter `name` between two registry snapshots. */
std::uint64_t
counter_delta(const obs::MetricsSnapshot &before,
              const obs::MetricsSnapshot &after, const std::string &name)
{
    auto value = [&name](const obs::MetricsSnapshot &snap) {
        for (const auto &c : snap.counters)
            if (c.name == name)
                return c.value;
        return std::uint64_t{0};
    };
    return value(after) - value(before);
}

/** Check sum_k K^dag K = I for a 1-qubit Kraus set. */
void
expect_complete_1q(const std::vector<sim::Mat2> &kraus)
{
    sim::Mat2 acc = {};
    for (const auto &k : kraus) {
        const sim::Mat2 t = sim::matmul(sim::dagger(k), k);
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j)
                acc[i][j] += t[i][j];
    }
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            EXPECT_NEAR(std::abs(acc[i][j] -
                                 (i == j ? sim::Amp(1) : sim::Amp(0))),
                        0.0, 1e-12);
}

TEST(Channels, KrausCompleteness)
{
    expect_complete_1q(depolarizing_1q_kraus(0.0));
    expect_complete_1q(depolarizing_1q_kraus(0.13));
    expect_complete_1q(depolarizing_1q_kraus(1.0));
    expect_complete_1q(amplitude_damping_kraus(0.3));
    expect_complete_1q(phase_damping_kraus(0.25));
    expect_complete_1q(thermal_relaxation_kraus(100.0, 80.0, 300.0));
    expect_complete_1q(thermal_relaxation_kraus(100.0, 200.0, 300.0));

    sim::Mat4 acc = {};
    for (const auto &k : depolarizing_2q_kraus(0.2)) {
        const sim::Mat4 t = sim::matmul(sim::dagger(k), k);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                acc[i][j] += t[i][j];
    }
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_NEAR(std::abs(acc[i][j] -
                                 (i == j ? sim::Amp(1) : sim::Amp(0))),
                        0.0, 1e-12);
}

TEST(Channels, PauliProbsSumToOne)
{
    for (const PauliProbs &p :
         {depolarizing_pauli(0.1),
          thermal_relaxation_pauli(100.0, 70.0, 300.0),
          compose(depolarizing_pauli(0.05),
                  thermal_relaxation_pauli(50.0, 40.0, 200.0))}) {
        EXPECT_NEAR(p.pi + p.px + p.py + p.pz, 1.0, 1e-12);
        EXPECT_GE(p.pi, 0.0);
        EXPECT_GE(p.px, 0.0);
        EXPECT_GE(p.py, 0.0);
        EXPECT_GE(p.pz, 0.0);
    }
}

TEST(Channels, ThermalRelaxationTwirlShrinksWithDuration)
{
    const PauliProbs fast = thermal_relaxation_pauli(100, 70, 100);
    const PauliProbs slow = thermal_relaxation_pauli(100, 70, 2000);
    EXPECT_GT(fast.pi, slow.pi);
}

TEST(Channels, ComposeMatchesDoubleDepolarizing)
{
    // Composing two depolarizing channels stays a Pauli channel with a
    // combined error rate p = p1 + p2 - 4 p1 p2 / 3.
    const double p1 = 0.1, p2 = 0.2;
    const PauliProbs c = compose(depolarizing_pauli(p1),
                                 depolarizing_pauli(p2));
    const double combined = p1 + p2 - 4.0 * p1 * p2 / 3.0;
    EXPECT_NEAR(1.0 - c.pi, combined, 1e-12);
    EXPECT_NEAR(c.px, combined / 3.0, 1e-12);
}

TEST(Readout, ConfusionMatrixBitwise)
{
    // Pure |00> distribution with 10% flip on bit 0, 20% on bit 1.
    const std::vector<double> probs = {1.0, 0.0, 0.0, 0.0};
    const auto noisy = apply_readout_confusion(probs, {0.1, 0.2});
    EXPECT_NEAR(noisy[0], 0.9 * 0.8, 1e-12);
    EXPECT_NEAR(noisy[1], 0.1 * 0.8, 1e-12);
    EXPECT_NEAR(noisy[2], 0.9 * 0.2, 1e-12);
    EXPECT_NEAR(noisy[3], 0.1 * 0.2, 1e-12);
}

TEST(Readout, ZeroErrorIsIdentity)
{
    const std::vector<double> probs = {0.25, 0.25, 0.25, 0.25};
    const auto noisy = apply_readout_confusion(probs, {0.0, 0.0});
    EXPECT_EQ(noisy, probs);
}

TEST(NoisyDensity, DistributionIsNormalized)
{
    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({0, 1});
    const auto probs = sim.run_distribution(c);
    double total = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, -1e-12);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NoisyDensity, ProgramCacheCountsHitsAndMisses)
{
    obs::Registry &registry = obs::Registry::global();
    registry.set_enabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();

    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit bell(dev.num_qubits());
    bell.add_gate(GateKind::H, {0});
    bell.add_gate(GateKind::CX, {0, 1});
    bell.set_measured({0, 1});
    Circuit other = bell;
    other.add_gate(GateKind::X, {1});
    (void)sim.run_distribution(bell);
    (void)sim.run_distribution(bell);
    (void)sim.run_distribution(other);

    const obs::MetricsSnapshot after = registry.snapshot();
    registry.set_enabled(false);
    auto delta = [&](const std::string &name) {
        return counter_delta(before, after, name);
    };
#ifdef ELV_OBS_DISABLED
    // The metric macros compile to no-ops: nothing may move.
    EXPECT_EQ(delta("cache.noisy_program.hits"), 0u);
    EXPECT_EQ(delta("cache.noisy_program.misses"), 0u);
#else
    EXPECT_EQ(delta("cache.noisy_program.hits"), 1u);
    EXPECT_EQ(delta("cache.noisy_program.misses"), 2u);
#endif
    EXPECT_EQ(delta("cache.noisy_program.evictions"), 0u);
}

TEST(NoisyDensity, ProgramCacheKeysOnCircuitStructure)
{
    obs::Registry &registry = obs::Registry::global();
    registry.set_enabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();

    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {0});
    c.add_variational(GateKind::RY, {1});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({0, 1});
    // A copy is the same circuit: a hit.
    const Circuit copy = c;
    // Each of these differs in one keyed part: three misses.
    Circuit measured_other = c;
    measured_other.set_measured({1});
    Circuit smaller(dev.num_qubits() - 1);
    for (const auto &op : c.ops())
        smaller.append_op(op);
    smaller.set_measured({0, 1});
    Circuit rebound = c;
    rebound.add_variational(GateKind::RZ, {1});

    const std::vector<double> params = {0.7, -0.3};
    const auto first = sim.run_distribution(c, params);
    EXPECT_EQ(sim.run_distribution(copy, params), first);
    const std::vector<const Circuit *> others = {&measured_other, &smaller,
                                                 &rebound};
    for (const Circuit *other : others) {
        // Same result as a simulator that never saw `c`.
        const NoisyDensitySimulator fresh(dev);
        EXPECT_EQ(sim.run_distribution(*other, params),
                  fresh.run_distribution(*other, params));
    }

    const obs::MetricsSnapshot after = registry.snapshot();
    registry.set_enabled(false);
#ifndef ELV_OBS_DISABLED
    // `sim` alone: 1 + 3 misses and 1 hit; the fresh simulators add one
    // miss each.
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.hits"), 1u);
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.misses"),
              7u);
#endif
}

TEST(NoisyDensity, ProgramCacheCountsEntriesDroppedAtCapacity)
{
    obs::Registry &registry = obs::Registry::global();
    registry.set_enabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();

    // 129 distinct circuits: the 129th miss finds 128 entries cached
    // and clears them all.
    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.set_measured({0});
    for (int n = 0; n < 129; ++n) {
        c.add_gate(GateKind::X, {0});
        (void)sim.run_distribution(c);
    }

    const obs::MetricsSnapshot after = registry.snapshot();
    registry.set_enabled(false);
#ifdef ELV_OBS_DISABLED
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.evictions"),
              0u);
#else
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.misses"),
              129u);
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.evictions"),
              128u);
#endif
}

TEST(NoisyDensity, NoiseTableCountsOneMissPerKeyAcrossReplicas)
{
    // Two CNR replicas of one candidate on one simulator: every replica
    // op is a fixed gate and reads one noise∘gate entry; only the first
    // read of each (kind, physical qubits) key builds it.
    const dev::Device dev = make_device("ibmq_jakarta");
    Circuit candidate(dev.num_qubits());
    candidate.add_variational(GateKind::RY, {0});
    candidate.add_variational(GateKind::RX, {1});
    candidate.add_gate(GateKind::CX, {0, 1});
    candidate.add_variational(GateKind::RZ, {2});
    candidate.add_gate(GateKind::CX, {1, 2});
    candidate.add_embedding(GateKind::RY, {0}, 0);
    candidate.add_variational(GateKind::RX, {3});
    candidate.add_gate(GateKind::CZ, {1, 3});
    candidate.add_variational(GateKind::RY, {1});
    candidate.add_gate(GateKind::CX, {2, 1});
    candidate.add_variational(GateKind::RZ, {0});
    candidate.set_measured({0, 1});
    Rng rng(71);
    const Circuit first = make_clifford_replica(candidate, rng);
    const Circuit second = make_clifford_replica(candidate, rng);

    std::uint64_t lookups = 0;
    std::set<std::tuple<GateKind, int, int>> keys;
    for (const Circuit *replica : {&first, &second})
        for (const Op &op : replica->ops()) {
            ++lookups;
            keys.emplace(op.kind, op.qubits[0], op.qubits[1]);
        }

    obs::Registry &registry = obs::Registry::global();
    registry.set_enabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();
    NoisyDensitySimulator sim(dev);
    (void)sim.one_shot_fidelity(first);
    (void)sim.one_shot_fidelity(second);
    const obs::MetricsSnapshot after = registry.snapshot();
    registry.set_enabled(false);

    const std::uint64_t hits =
        counter_delta(before, after, "cache.noise_table.hits");
    const std::uint64_t misses =
        counter_delta(before, after, "cache.noise_table.misses");
#ifdef ELV_OBS_DISABLED
    // The metric macros compile to no-ops: nothing may move.
    EXPECT_EQ(hits, 0u);
    EXPECT_EQ(misses, 0u);
#else
    EXPECT_EQ(misses, keys.size());
    EXPECT_EQ(hits + misses, lookups);
    EXPECT_EQ(hits, 18u);
    EXPECT_EQ(misses, 11u);
#endif
    // one_shot_fidelity() never enters the program cache.
    EXPECT_EQ(counter_delta(before, after, "cache.noisy_program.misses"),
              0u);
}

TEST(NoisyDensity, FidelityDecreasesWithDepth)
{
    const dev::Device dev = make_device("oqc_lucy");
    NoisyDensitySimulator sim(dev);
    double prev = 1.0;
    for (int layers : {1, 4, 16}) {
        // Identity-composing layers: the ideal output stays |000>, so
        // 1 - TVD degrades monotonically as noise accumulates.
        Circuit c(dev.num_qubits());
        for (int l = 0; l < layers; ++l) {
            c.add_gate(GateKind::H, {0});
            c.add_gate(GateKind::CX, {0, 1});
            c.add_gate(GateKind::CX, {1, 2});
            c.add_gate(GateKind::CX, {1, 2});
            c.add_gate(GateKind::CX, {0, 1});
            c.add_gate(GateKind::H, {0});
        }
        c.set_measured({0, 1, 2});
        const double fid = sim.fidelity(c);
        EXPECT_LT(fid, prev);
        EXPECT_GT(fid, 0.0);
        prev = fid;
    }
}

TEST(NoisyDensity, NoiseScaleZeroIsIdeal)
{
    const dev::Device dev = make_device("ibm_lagos");
    NoisyDensitySimulator noiseless(dev, 0.0);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {1});
    c.add_gate(GateKind::CX, {1, 3});
    c.set_measured({1, 3});
    EXPECT_NEAR(noiseless.fidelity(c), 1.0, 1e-12);

    NoisyDensitySimulator noisy(dev, 1.0);
    NoisyDensitySimulator very_noisy(dev, 4.0);
    EXPECT_GT(noisy.fidelity(c), very_noisy.fidelity(c));
}

TEST(NoisyDensity, RejectsUncoupledTwoQubitGates)
{
    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::CX, {0, 6}); // not coupled on Falcon-7
    c.set_measured({0});
    EXPECT_THROW(sim.run_distribution(c), elv::UsageError);
}

TEST(NoisyDensity, WorksOnLargeDeviceViaCompaction)
{
    // A 3-qubit circuit placed on physical qubits of the 127-qubit
    // Eagle: compaction must keep the density matrix tiny.
    const dev::Device dev = make_device("ibm_kyoto");
    // Find a path of three connected qubits.
    int a = -1, b = -1, c2 = -1;
    for (int q = 0; q < dev.num_qubits() && a < 0; ++q) {
        const auto &nbs = dev.topology.neighbors(q);
        if (nbs.size() >= 2) {
            a = nbs[0];
            b = q;
            c2 = nbs[1];
        }
    }
    ASSERT_GE(a, 0);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {b});
    c.add_gate(GateKind::CX, {b, a});
    c.add_gate(GateKind::CX, {b, c2});
    c.set_measured({a, b, c2});
    NoisyDensitySimulator sim(dev);
    const double fid = sim.fidelity(c);
    EXPECT_GT(fid, 0.5);
    EXPECT_LT(fid, 1.0);
}

/** Bit patterns of `values`, for memcmp-exact pins. */
std::vector<std::uint64_t>
bit_patterns(const std::vector<double> &values)
{
    std::vector<std::uint64_t> bits(values.size());
    std::memcpy(bits.data(), values.data(),
                values.size() * sizeof(double));
    return bits;
}

/** 6 qubits of ibm_guadalupe (physical 0, 1, 2, 3, 4, 7): RX/RY/RZ
 *  variational and angle-embedding gates over CX/CZ in both operand
 *  orders, with local qubit 0 in 1- and 2-qubit operands. */
Circuit
pinned_guadalupe_circuit(const dev::Device &dev)
{
    Circuit c(dev.num_qubits());
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_embedding(GateKind::RY, {1}, 1);
    c.add_embedding(GateKind::RZ, {2}, 2);
    c.add_embedding(GateKind::RY, {4}, 3);
    c.add_gate(GateKind::H, {3});
    c.add_gate(GateKind::H, {7});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_gate(GateKind::CZ, {2, 3});
    c.add_gate(GateKind::CX, {7, 4});
    c.add_variational(GateKind::RX, {0});
    c.add_variational(GateKind::RY, {1});
    c.add_variational(GateKind::RZ, {3});
    c.add_variational(GateKind::RY, {7});
    c.add_gate(GateKind::CX, {1, 2});
    c.add_gate(GateKind::CZ, {4, 1});
    c.add_gate(GateKind::CX, {1, 0});
    c.add_gate(GateKind::S, {0});
    c.add_gate(GateKind::CX, {3, 2});
    c.add_embedding(GateKind::RX, {7}, 0);
    c.add_variational(GateKind::RZ, {2});
    c.add_variational(GateKind::RX, {4});
    c.add_gate(GateKind::CZ, {0, 1});
    c.add_gate(GateKind::CX, {4, 7});
    c.add_variational(GateKind::RY, {0});
    c.add_gate(GateKind::CX, {2, 1});
    c.set_measured({0, 1, 3, 7});
    return c;
}

/** 4 qubits of ibm_perth (physical 0, 1, 2, 3). */
Circuit
pinned_perth_circuit(const dev::Device &dev)
{
    Circuit c(dev.num_qubits());
    c.add_embedding(GateKind::RY, {0}, 0);
    c.add_embedding(GateKind::RX, {3}, 1);
    c.add_gate(GateKind::H, {2});
    c.add_gate(GateKind::CX, {1, 0});
    c.add_gate(GateKind::CZ, {1, 3});
    c.add_variational(GateKind::RZ, {0});
    c.add_variational(GateKind::RX, {1});
    c.add_gate(GateKind::CX, {2, 1});
    c.add_variational(GateKind::RY, {2});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RY, {3});
    c.set_measured({0, 1, 2});
    return c;
}

TEST(NoisyDensity, InferencePinnedToParentCommit)
{
    // Bit patterns recorded before the superoperator kernels skipped
    // zero weights: a skipped +/-0 product leaves an accumulator that
    // started at +0 unchanged, so every distribution and fidelity must
    // stay bit-identical on every kernel tier.
    const std::vector<std::uint64_t> want_guadalupe = {
        0x3fc50aa6491b6b8cull, 0x3fb492f81a286090ull,
        0x3f8d296e6a85d312ull, 0x3f80390cf3dcd040ull,
        0x3f8c0112d9099e05ull, 0x3f7fa0e509a56683ull,
        0x3fc4d25a652da55cull, 0x3fb456157dbbad46ull,
        0x3fb44791f6816a79ull, 0x3fc1b5c24e832fbdull,
        0x3f7cde45437ad56aull, 0x3f87e9bb1f15577bull,
        0x3f7c9dfdd82a5d46ull, 0x3f8816faabcc7bb8ull,
        0x3fb403528b9a9cc9ull, 0x3fc1741674e47e87ull
    };
    const std::vector<std::uint64_t> want_perth = {
        0x3fd39273a50fdd61ull, 0x3f96090ae7162198ull,
        0x3fc1f01abce9b4bdull, 0x3fa136fbc179105dull,
        0x3fc22c41644703a7ull, 0x3fa12f33b118c9daull,
        0x3fd35470deca7c9eull, 0x3f95d96cec9ac6c5ull
    };
    const std::vector<std::uint64_t> want_replica = {
        0x3fed6e7fc4a0c355ull
    };

    const dev::Device guadalupe = make_device("ibm_guadalupe");
    const dev::Device perth = make_device("ibm_perth");
    const Circuit c6 = pinned_guadalupe_circuit(guadalupe);
    const Circuit c4 = pinned_perth_circuit(perth);
    Rng rng(29);
    const Circuit replica = make_clifford_replica(c6, rng);
    const std::vector<double> params6 = {0.31, -1.2, 2.05, 0.7,
                                         -0.45, 1.6, -2.9};
    const std::vector<double> x6 = {0.9, -0.35, 1.4, 0.05};
    const std::vector<double> params4 = {-0.8, 1.1, 0.25, -2.2};
    const std::vector<double> x4 = {0.6, -1.3};

    struct TierGuard
    {
        ~TierGuard() { sim::clear_forced_tier(); }
    } guard;
    const int best = static_cast<int>(sim::best_supported_tier());
    for (int t = 0; t <= best; ++t) {
        sim::set_forced_tier(static_cast<sim::KernelTier>(t));
        const NoisyDensitySimulator sim6(guadalupe);
        const NoisyDensitySimulator sim4(perth);
        EXPECT_EQ(bit_patterns(sim6.run_distribution(c6, params6, x6)),
                  want_guadalupe)
            << "tier " << t;
        EXPECT_EQ(bit_patterns(sim4.run_distribution(c4, params4, x4)),
                  want_perth)
            << "tier " << t;
        EXPECT_EQ(bit_patterns({sim6.one_shot_fidelity(replica)}),
                  want_replica)
            << "tier " << t;
    }
}

TEST(NoisyDensity, RejectsNonFiniteBindings)
{
    const dev::Device dev = make_device("ibm_perth");
    const NoisyDensitySimulator sim(dev);
    const Circuit c = pinned_perth_circuit(dev);
    const std::vector<double> params = {-0.8, 1.1, 0.25, -2.2};
    const std::vector<double> x = {0.6, -1.3};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(sim.run_distribution(c, {-0.8, nan, 0.25, -2.2}, x),
                 elv::UsageError);
    EXPECT_THROW(sim.run_distribution(c, params, {0.6, -inf}),
                 elv::UsageError);
    EXPECT_THROW(sim.fidelity(c, params, {nan, -1.3}), elv::UsageError);
    EXPECT_THROW(sim.one_shot_fidelity(c, {inf, 1.1, 0.25, -2.2}, x),
                 elv::UsageError);
    EXPECT_NO_THROW(sim.run_distribution(c, params, x));
}

TEST(CrossBackend, StabilizerMatchesDensityOnCliffordCircuit)
{
    // The stochastic-Pauli stabilizer executor approximates the exact
    // density-matrix executor on a Clifford circuit. Depolarizing and
    // readout parts are exact under twirling; thermal relaxation is
    // approximated, so the tolerance is loose but tight enough to catch
    // structural bugs.
    const dev::Device dev = make_device("ibm_perth");
    Circuit phys(dev.num_qubits());
    phys.add_gate(GateKind::H, {1});
    phys.add_gate(GateKind::CX, {1, 3});
    phys.add_gate(GateKind::CX, {3, 5});
    phys.add_gate(GateKind::S, {5});
    phys.add_gate(GateKind::H, {5});
    phys.set_measured({1, 3, 5});

    NoisyDensitySimulator exact(dev);
    const auto dense = exact.run_distribution(phys);

    std::vector<int> kept;
    const Circuit local = phys.compacted(kept);
    DevicePauliNoise hook(dev, kept);
    Rng rng(2024);
    const auto sampled =
        stab::sample_distribution(local, 40000, rng, &hook);

    ASSERT_EQ(dense.size(), sampled.size());
    EXPECT_LT(total_variation_distance(dense, sampled), 0.05);
}

TEST(CrossBackend, NoiselessAgreementIsExact)
{
    const dev::Device dev = make_device("ibm_perth");
    Circuit phys(dev.num_qubits());
    phys.add_gate(GateKind::H, {1});
    phys.add_gate(GateKind::CX, {1, 3});
    phys.set_measured({1, 3});

    NoisyDensitySimulator ideal(dev, 0.0);
    const auto dense = ideal.run_distribution(phys);

    std::vector<int> kept;
    const Circuit local = phys.compacted(kept);
    DevicePauliNoise hook(dev, kept, 0.0);
    Rng rng(7);
    const auto sampled =
        stab::sample_distribution(local, 20000, rng, &hook);
    EXPECT_LT(total_variation_distance(dense, sampled), 0.02);
}

TEST(ReadoutMitigation, InvertsConfusionExactly)
{
    const std::vector<double> ideal = {0.55, 0.05, 0.3, 0.1};
    const std::vector<double> flips = {0.08, 0.15};
    const auto noisy = apply_readout_confusion(ideal, flips);
    const auto recovered = mitigate_readout(noisy, flips);
    for (std::size_t k = 0; k < ideal.size(); ++k)
        EXPECT_NEAR(recovered[k], ideal[k], 1e-12);
}

TEST(ReadoutMitigation, ClipsSampledArtifacts)
{
    // A sampled histogram that the exact inverse would push negative.
    const std::vector<double> sampled = {0.9, 0.0, 0.1, 0.0};
    const auto recovered = mitigate_readout(sampled, {0.2, 0.2});
    double total = 0.0;
    for (double p : recovered) {
        EXPECT_GE(p, 0.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ReadoutMitigation, RejectsNonInvertibleError)
{
    EXPECT_THROW(mitigate_readout({0.5, 0.5}, {0.5}), elv::UsageError);
}

TEST(FastChannels, DepolarizingMatchesKraus)
{
    // The closed-form depolarizing paths must agree with the generic
    // Kraus route on an arbitrary entangled state.
    Rng rng(99);
    Circuit c = build_random_rxyz_cz(3, 3, 9, 3, rng);
    std::vector<double> params(9);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.2, -0.9, 0.5};

    for (double p : {0.0, 0.05, 0.4}) {
        sim::DensityMatrix kraus_rho(3), fast_rho(3);
        kraus_rho.run(c, params, x);
        fast_rho.run(c, params, x);

        kraus_rho.apply_kraus_1q(depolarizing_1q_kraus(p), 1);
        fast_rho.apply_depolarizing_1q(p, 1);
        kraus_rho.apply_kraus_2q(depolarizing_2q_kraus(p), 0, 2);
        fast_rho.apply_depolarizing_2q(p, 0, 2);

        for (std::size_t r = 0; r < 8; ++r)
            for (std::size_t cc = 0; cc < 8; ++cc)
                EXPECT_NEAR(std::abs(kraus_rho.element(r, cc) -
                                     fast_rho.element(r, cc)),
                            0.0, 1e-12)
                    << "p=" << p;
    }
}

TEST(FastChannels, ThermalRelaxationMatchesKraus)
{
    Rng rng(101);
    Circuit c = build_random_rxyz_cz(3, 3, 9, 3, rng);
    std::vector<double> params(9);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.4, 0.1, -0.7};

    for (auto [t1, t2, dur] :
         {std::tuple{100.0, 80.0, 300.0}, std::tuple{50.0, 90.0, 700.0},
          std::tuple{120.0, 240.0, 35.0}}) {
        sim::DensityMatrix kraus_rho(3), fast_rho(3);
        kraus_rho.run(c, params, x);
        fast_rho.run(c, params, x);

        kraus_rho.apply_kraus_1q(thermal_relaxation_kraus(t1, t2, dur),
                                 2);
        const ThermalParams relax =
            thermal_relaxation_params(t1, t2, dur);
        fast_rho.apply_thermal_relaxation(relax.gamma, relax.lambda, 2);

        for (std::size_t r = 0; r < 8; ++r)
            for (std::size_t cc = 0; cc < 8; ++cc)
                EXPECT_NEAR(std::abs(kraus_rho.element(r, cc) -
                                     fast_rho.element(r, cc)),
                            0.0, 1e-12);
    }
}

TEST(FastChannels, FullDepolarizingIsMaximallyMixed)
{
    sim::DensityMatrix rho(2);
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    rho.run(c);
    rho.apply_depolarizing_1q(0.75, 0); // lambda = 1: full twirl
    rho.apply_depolarizing_1q(0.75, 1);
    const auto probs = rho.probabilities({0, 1});
    for (double p : probs)
        EXPECT_NEAR(p, 0.25, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

} // namespace
