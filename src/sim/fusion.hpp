/**
 * @file
 * Gate-fusion pass over the circuit IR.
 *
 * A FusedProgram is a compiled op stream where runs of adjacent fixed
 * 1-qubit gates on the same qubit are collapsed into one Mat2, and
 * fixed 1-qubit gates adjacent to a fixed 2-qubit gate are absorbed
 * into its Mat4. A CX/CZ/SWAP that absorbed nothing stays a typed
 * entry and runs as a permutation/phase pass, not a dense Mat4.
 * Parametric gates (variational or embedding) and the
 * amplitude-embedding pseudo-op are fusion *barriers*: their angles
 * depend on runtime (params, x) values, so they are kept as IR ops and
 * nothing fuses across them on the qubits they touch. A fused program
 * therefore replays bit-identically-shaped arithmetic per gate group
 * while executing far fewer state-vector passes on Clifford-heavy
 * circuits (CNR replicas are all-fixed and fuse maximally).
 *
 * FusedProgram::run matches StateVector::run up to floating-point
 * reassociation within each fused group (~1e-15 per amplitude).
 *
 * Callers that replay one circuit many times compile it once and keep
 * the program: the trainer compiles its circuit before the epoch loop
 * and shares the program read-only across pool threads, and one
 * parameter-shift gradient replays one program for all 2P+1 runs.
 * One-shot callers compile per call: at 4-6 qubits that is cheaper than
 * a FusionCache hit (measured below).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/kernel_obs.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"

namespace elv::sim {

/** One entry of a compiled fused op stream. */
struct FusedOp
{
    enum class Kind {
        One,     ///< dense Mat2 on q0 (one or more fused fixed gates)
        Two,     ///< dense Mat4 on (q0, q1), basis |q0 q1>
        CX,      ///< a lone CX (control q0, target q1): a permutation
        CZ,      ///< a lone CZ on (q0, q1): a phase flip
        SWAP,    ///< a lone SWAP of q0 and q1: a permutation
        Barrier, ///< parametric / amplitude-embedding IR op, kept as-is
    };

    Kind kind = Kind::Barrier;
    Mat2 m2{};
    Mat4 m4{};
    int q0 = -1;
    int q1 = -1;
    /** The original IR op (Barrier entries only). */
    circ::Op op{};

    /**
     * Apply a fixed entry (any kind but Barrier) to `psi`. CX/CZ/SWAP
     * entries run the permutation/phase kernels, which match the dense
     * Mat4 kernel bit-for-bit on every nonzero amplitude (the matrix
     * holds only 0 and +-1 and the dense kernel sums from zero).
     */
    void apply(StateVector &psi) const;
};

/** A circuit compiled through the gate-fusion pass. */
class FusedProgram
{
  public:
    /** Compile `circuit` into a fused op stream. */
    static FusedProgram compile(const circ::Circuit &circuit);

    /**
     * Run from |0...0>: resets `psi`, then applies the fused stream.
     * Equivalent to StateVector::run on the source circuit within
     * floating-point reassociation of each fused group.
     */
    void run(StateVector &psi, const std::vector<double> &params = {},
             const std::vector<double> &x = {}) const;

    /**
     * run() with every Barrier entry `f` applied by
     * `barrier(k, f, psi)`, k counting barriers from 0 in stream
     * order: how a caller that
     * built the barrier matrices ahead of time (AdjointProgram) replays
     * the fused stream.
     */
    template <class Barrier>
    void run_with(StateVector &psi, Barrier &&barrier) const
    {
        ELV_REQUIRE(psi.num_qubits() == num_qubits_,
                    "program/state qubit count mismatch");
        ELV_TRACE_SCOPE("sv.fused_run", "sim");
        ELV_METRIC_COUNT("sim.sv.fused_runs");
        note_kernel_dispatch();
        psi.reset();
        std::size_t k = 0;
        for (const FusedOp &f : ops_) {
            if (f.kind == FusedOp::Kind::Barrier)
                barrier(k++, f, psi);
            else
                f.apply(psi);
        }
    }

    const std::vector<FusedOp> &ops() const { return ops_; }

    /** Source-circuit ops eliminated by fusion. */
    std::uint64_t ops_merged() const { return ops_merged_; }

    /** Source-circuit op count before fusion. */
    std::size_t source_ops() const { return source_ops_; }

    /**
     * Leading source ops whose matrices resolved fully at compile time
     * (everything before the first fusion barrier): the state they
     * produce is identical for every (params, x), so a cached prefix
     * state could replace re-executing them on each run. This is the
     * compiled-level counterpart of the lint dataflow pass's
     * const/Clifford region inference (lint/dataflow.hpp) — the
     * dataflow Clifford prefix is always <= this count, since fixed
     * Clifford gates are a subset of fixed gates.
     */
    std::size_t const_prefix_source_ops() const
    {
        return const_prefix_source_ops_;
    }

    int num_qubits() const { return num_qubits_; }

  private:
    std::vector<FusedOp> ops_;
    std::uint64_t ops_merged_ = 0;
    std::size_t source_ops_ = 0;
    std::size_t const_prefix_source_ops_ = 0;
    int num_qubits_ = 1;
};

/**
 * Process-wide cache of compiled FusedPrograms keyed by the exact
 * circuit serialization (collision-free), bounded by a wholesale clear
 * at capacity.
 *
 * No library path uses it any more. A hit serializes the whole circuit
 * for its key, hashes the string and takes a process-wide mutex, which
 * costs about twice a fresh compile at the sizes the benchmarks
 * search (4-vCPU AVX-512 host, GCC 12 -O2, best of 7 x 2000 calls):
 * 9-14 us against 4-6 us on a 79-op 4-qubit mnist-4 winner, 22-31 us
 * against 10-14 us on a 168-op 6-qubit mnist-10 winner. It stays only
 * because the end-to-end benchmark (pipebench/) clears it every
 * iteration; removing it waits on a change to that benchmark.
 */
class FusionCache
{
  public:
    static FusionCache &global();

    /** The compiled program for `circuit`, compiling on first use. */
    std::shared_ptr<const FusedProgram> get(const circ::Circuit &circuit);

    /** Entries currently cached (for tests). */
    std::size_t size() const;

    /** Drop every cached program. */
    void clear();

  private:
    static constexpr std::size_t kCapacity = 256;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const FusedProgram>>
        programs_;
};

} // namespace elv::sim
