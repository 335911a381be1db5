/**
 * @file
 * Channel superoperators and the compiled noisy program.
 *
 * A channel rho -> sum_k K rho K^dag acting on the vectorized density
 * matrix (rho as a 2n-qubit state vector, row qubits 0..n-1, column
 * qubits n..2n-1) is a *linear* map on the amplitudes: a 4x4 matrix on
 * the (row, column) pair of one qubit, or a 16x16 matrix on the two
 * pairs of a qubit pair. Precomputing that matrix turns a Kraus set of
 * any size into a single gathered pass over the 4^n amplitudes —
 * DensityMatrix::apply_superop_1q/2q — instead of one full-state copy
 * plus two kernel passes per Kraus operator.
 *
 * Because a gate unitary is itself a (single-Kraus) channel, the gate
 * and its trailing calibration noise compose into one superoperator,
 * and adjacent fixed gates keep composing where that is cheaper than
 * applying them: NoisyProgram is the noisy analogue of
 * sim::FusedProgram, fusing in superoperator space with parametric
 * gates as barriers. Device noise depends only on the physical qubits
 * and gate kind — never on rotation angles — so NoiseTable builds each
 * noise∘gate superoperator once, and even a parametric gate
 * contributes a fusable noise superoperator right after its barrier
 * entry.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/device.hpp"
#include "sim/density_matrix.hpp"
#include "sim/unitaries.hpp"

namespace elv::noise {

/** Superoperator of a 1-qubit Kraus channel in the |r c> pair basis:
 *  S[2a+b][2a'+b'] = sum_k K[a][a'] conj(K[b][b']). */
sim::Mat4 kraus_superop_1q(const std::vector<sim::Mat2> &kraus);

/** Superoperator of a 2-qubit Kraus channel in the |r0 r1 c0 c1>
 *  basis (matching DensityMatrix::apply_superop_2q). */
sim::Mat16 kraus_superop_2q(const std::vector<sim::Mat4> &kraus);

/** Superoperator of the unitary channel rho -> U rho U^dag. */
sim::Mat4 unitary_superop_1q(const sim::Mat2 &u);
sim::Mat16 unitary_superop_2q(const sim::Mat4 &u);

/**
 * Embed a 1-qubit superoperator into the 2-qubit superoperator basis:
 * slot 0 acts on the (r0, c0) pair, slot 1 on (r1, c1).
 */
sim::Mat16 expand_superop_1q(const sim::Mat4 &s, int slot);

/** Reorder a 2-qubit superoperator between |r0 r1 c0 c1> and
 *  |r1 r0 c1 c0> (operand swap). */
sim::Mat16 swap_superop_pair(const sim::Mat16 &s);

/**
 * Per-device superoperator table. Device noise depends only on the
 * physical qubits and the gate kind, never on angles, so everything a
 * NoisyProgram takes from the calibration is a pure function of a small
 * key and is built once per table:
 *
 *  - noise∘U for every fixed (parameter-free) gate, keyed by
 *    (kind, physical qubit) or (kind, ordered physical edge) — the bare
 *    unitary superoperator when the table is noiseless;
 *  - the bare trailing noise per qubit and per ordered edge (with the
 *    2-qubit depolarizing channel paid twice for CRY), which follows
 *    each parametric barrier.
 *
 * Entries fill lazily under the table's mutex and are never modified
 * or erased afterwards, so the returned references stay valid for the
 * table's lifetime and lookup order cannot change a result. Counters:
 * cache.noise_table.{hits,misses} per lookup.
 */
class NoiseTable
{
  public:
    /** @param scale multiplies every error rate (0 = noiseless). */
    NoiseTable(const dev::Device &device, double scale);

    /** Whether calibration noise follows each gate (scale > 0). */
    bool noisy() const { return scale_ > 0.0; }

    /** noise∘U of the fixed 1-qubit gate `kind` on physical qubit pq. */
    const sim::Mat4 &gate_1q(circ::GateKind kind, int pq) const;

    /** noise∘U of the fixed 2-qubit gate `kind` on the ordered
     *  physical edge (pa, pb), in the |r_a r_b c_a c_b> basis. */
    const sim::Mat16 &gate_2q(circ::GateKind kind, int pa, int pb) const;

    /** Trailing noise of a 1-qubit gate on pq (requires noisy()). */
    const sim::Mat4 &noise_1q(int pq) const;

    /** Trailing noise of a 2-qubit gate on (pa, pb); `cry` pays the
     *  depolarizing channel twice (requires noisy()). */
    const sim::Mat16 &noise_2q(int pa, int pb, bool cry) const;

  private:
    template <class M, class Build>
    const M &lookup(std::unordered_map<std::uint64_t, M> &entries,
                    std::uint64_t key, Build build) const;

    sim::Mat4 thermal(int pq, double duration_ns) const;
    sim::Mat4 build_noise_1q(int pq) const;
    sim::Mat16 build_noise_2q(int pa, int pb, bool cry) const;

    const dev::Device &device_;
    double scale_;
    mutable std::mutex mutex_;
    mutable std::unordered_map<std::uint64_t, sim::Mat4> s4_;
    mutable std::unordered_map<std::uint64_t, sim::Mat16> s16_;
};

/**
 * A circuit compiled for noisy density-matrix execution: every fixed
 * gate is combined with its calibration noise into one superoperator
 * (read from a NoiseTable) and adjacent superoperators are fused
 * greedily (same pass structure and barrier rules as
 * sim::FusedProgram) wherever the cost model below says the merge pays
 * for itself. Replaying it performs no per-run allocation or channel
 * construction.
 *
 * Cost model, in complex multiply-adds on an n-qubit rho: applying a
 * Super1 costs 4^(n+1) and a Super2 16 * 4^n; composing costs 64 for a
 * Mat4 product and 4096 for any product involving a Mat16. A program
 * replayed many times merges everywhere the pass structure allows; a
 * one-shot program merges only where composing costs less than the
 * applies it removes (at n = 4 that is 1-qubit runs only).
 *
 * The model prices every apply as dense although the kernels skip zero
 * weights (a table noise∘CX Super2 has 32 of 256 nonzero). That is
 * deliberate: a nonzero-aware model would merge differently, and a
 * different fusion order changes the rounding of every noisy value.
 */
class NoisyProgram
{
  public:
    /** How often a program is expected to run, for the cost model. */
    enum class Replays {
        Once, ///< one-shot (a CNR replica): merge only where it pays 1x
        Many, ///< cached and replayed: merge everywhere
    };

    /**
     * Compile `local` (an already-compacted circuit) with superoperators
     * from `table`; `kept[q]` is the physical qubit behind local qubit
     * q. Replicates NoisyDensitySimulator's per-gate channel schedule:
     * depolarizing then thermal relaxation after 1-qubit gates,
     * depolarizing (twice for CRY) then both thermal relaxations after
     * 2-qubit gates.
     */
    static NoisyProgram compile(const circ::Circuit &local,
                                const std::vector<int> &kept,
                                const NoiseTable &table, Replays replays);

    /** Replay on `rho` from |0...0><0...0|. */
    void run(sim::DensityMatrix &rho, const std::vector<double> &params = {},
             const std::vector<double> &x = {}) const;

    /** Gate/channel applications eliminated by fusion. */
    std::uint64_t ops_merged() const { return ops_merged_; }

    /** Entries in the compiled stream. */
    std::size_t size() const { return entries_.size(); }

    int num_qubits() const { return num_qubits_; }

  private:
    struct Entry
    {
        enum class Kind {
            Super1,  ///< Mat4 superoperator on qubit q0
            Super2,  ///< Mat16 superoperator on (q0, q1)
            Barrier, ///< parametric / amplitude-embedding IR op
        };

        Kind kind = Kind::Barrier;
        sim::Mat4 s4{};
        /** Index of a Super2's superoperator in mats16_ (kept out of
         *  the entry so that building the stream moves no 4 KB
         *  matrices). */
        std::size_t m16 = 0;
        int q0 = -1;
        int q1 = -1;
        circ::Op op{};
    };

    std::vector<Entry> entries_;
    std::vector<sim::Mat16> mats16_;
    std::uint64_t ops_merged_ = 0;
    int num_qubits_ = 1;
};

} // namespace elv::noise
