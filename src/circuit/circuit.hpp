/**
 * @file
 * Circuit intermediate representation.
 *
 * A Circuit is an ordered list of operations over `num_qubits` logical
 * qubits. Parametric gates carry a role: *variational* gates read their
 * angles from the trainable parameter vector, *embedding* gates read them
 * from the classical input sample (optionally a product of two features,
 * as used by IQP embeddings). This is the object every other subsystem
 * (simulators, compiler, search, baselines) operates on.
 */
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace elv::circ {

/** How a parametric gate obtains its rotation angle. */
enum class ParamRole {
    None,        ///< fixed gate, no parameters
    Variational, ///< angles come from the trainable parameter vector
    Embedding,   ///< angles come from the classical input sample
};

/** A single gate application. */
struct Op
{
    GateKind kind = GateKind::H;
    /** Acted-on qubits; entry 1 is -1 for 1-qubit gates. */
    std::array<int, 2> qubits = {-1, -1};
    ParamRole role = ParamRole::None;
    /** First slot in the parameter vector (variational gates only). */
    int param_index = -1;
    /** Feature index embedded by this gate (embedding gates only). */
    int data_index = -1;
    /** Second feature index for product embeddings (angle = x_i * x_j). */
    int data_index2 = -1;

    /** Number of qubits this op acts on. */
    int num_qubits() const { return gate_num_qubits(kind); }
    /** Number of continuous parameters this op consumes. */
    int num_params() const { return gate_num_params(kind); }

    /** Same gate application and binding, field by field. */
    bool operator==(const Op &) const = default;
};

/**
 * Resolve the (up to 3) rotation angles of an operation given the
 * trainable parameters and the input sample. Fixed gates return zeros.
 */
std::array<double, 3> op_angles(const Op &op,
                                const std::vector<double> &params,
                                const std::vector<double> &x);

/** An ordered gate list plus measurement set over logical qubits. */
class Circuit
{
  public:
    explicit Circuit(int num_qubits);

    /** Default: a trivial 1-qubit circuit (useful for result structs). */
    Circuit() : Circuit(1) {}

    /** @name Construction @{ */

    /** Append a fixed (non-parametric) gate. Returns the op index. */
    std::size_t add_gate(GateKind kind, const std::vector<int> &qubits);

    /** Append a variational parametric gate. Returns the op index. */
    std::size_t add_variational(GateKind kind, const std::vector<int> &qubits);

    /**
     * Append an embedding gate encoding feature `data_index` (or the
     * product with `data_index2` when the latter is >= 0).
     */
    std::size_t add_embedding(GateKind kind, const std::vector<int> &qubits,
                              int data_index, int data_index2 = -1);

    /** Append an amplitude-embedding pseudo-op over all qubits. */
    std::size_t add_amplitude_embedding();

    /**
     * Append a copy of `op`, retaining its parameter slot and embedding
     * metadata, with qubits relabeled through `mapping` (empty =
     * identity). For compiler passes, which may reorder commuting gates
     * and must keep parameter indices aligned with the source circuit.
     * A circuit built this way rejects subsequent add_variational /
     * designate_embedding calls (they would re-index the slots).
     */
    std::size_t append_op(const Op &op,
                          const std::vector<int> &mapping = {});

    /**
     * Convert an existing variational single-parameter gate into an
     * embedding gate for `data_index` (Algorithm 1, line 14). Parameter
     * slots of subsequent gates are re-indexed.
     */
    void designate_embedding(std::size_t op_index, int data_index);

    /** Set the measured qubits (order defines output bit order). */
    void set_measured(std::vector<int> qubits);

    /** @} */
    /** @name Introspection @{ */

    int num_qubits() const { return num_qubits_; }
    /** Total variational parameter count. */
    int num_params() const { return num_params_; }
    const std::vector<Op> &ops() const { return ops_; }
    const std::vector<int> &measured() const { return measured_; }
    /** True iff the circuit contains an amplitude-embedding op. */
    bool has_amplitude_embedding() const;

    /** Number of embedding gates (amplitude embedding counts as one). */
    int num_embedding_gates() const;

    /**
     * Highest data feature index referenced by any embedding gate,
     * plus one; 0 when the circuit embeds no data.
     */
    int num_data_features() const;

    /** Circuit depth (longest per-qubit dependency chain). */
    int depth() const;

    /** Count of 1-qubit gates (amplitude embedding excluded). */
    int count_1q() const;

    /** Count of 2-qubit gates. */
    int count_2q() const;

    /** Count of ops of a specific gate kind. */
    int count_kind(GateKind kind) const;

    /** All qubits touched by at least one op or measurement. */
    std::vector<int> touched_qubits() const;

    /** Indices of ops with role Embedding. */
    std::vector<std::size_t> embedding_op_indices() const;

    /** Indices of ops with role Variational. */
    std::vector<std::size_t> variational_op_indices() const;

    /** Human-readable multi-line dump for debugging and examples. */
    std::string to_string() const;

    /** @} */
    /** @name Transformation @{ */

    /**
     * Relabel qubits: logical qubit q becomes `mapping[q]`. The result
     * has `new_num_qubits` qubits (>= max mapped index + 1).
     *
     * Every qubit the circuit uses (gates or measurements) must map to
     * a distinct target inside `[0, new_num_qubits)`; a duplicate or
     * out-of-range target raises elv::UsageError rather than silently
     * aliasing qubits. Unused qubits may map to -1 (compacted() relies
     * on this to drop them).
     */
    Circuit remapped(const std::vector<int> &mapping,
                     int new_num_qubits) const;

    /**
     * Compact to the touched qubits only: returns the reduced circuit and
     * fills `kept` with the original indices of the retained qubits (in
     * increasing order). Used to simulate small circuits living on large
     * devices.
     */
    Circuit compacted(std::vector<int> &kept) const;

    /** @} */

  private:
    void reindex_params();
    void check_qubits(const std::vector<int> &qubits, int expected) const;

    int num_qubits_;
    int num_params_ = 0;
    /** Set once append_op has pinned parameter slots. */
    bool params_pinned_ = false;
    std::vector<Op> ops_;
    std::vector<int> measured_;
};

} // namespace elv::circ
