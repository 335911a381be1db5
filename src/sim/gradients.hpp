/**
 * @file
 * Gradients of observable expectations with respect to variational
 * parameters, via two backends mirroring the paper's two cost regimes:
 *
 *  - adjoint differentiation: the "backpropagation on classical
 *    simulators" regime (Table 4, 'C' columns). One forward pass plus one
 *    reverse sweep per observable, independent of the parameter count.
 *  - parameter-shift: the "gradients on quantum hardware" regime
 *    (Table 4, 'Q' columns). Two circuit executions per 1-qubit rotation
 *    parameter (four for controlled rotations), which is exactly the
 *    linear-in-parameters scaling the paper identifies as the
 *    SuperCircuit bottleneck.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/fusion.hpp"
#include "sim/observable.hpp"

namespace elv::sim {

/** Expectations and their Jacobian for a set of observables. */
struct GradientResult
{
    /** Expectation value per observable. */
    std::vector<double> values;
    /** jacobian[o][p] = d values[o] / d params[p]. */
    std::vector<std::vector<double>> jacobian;
    /**
     * When embedding gradients were requested:
     * embedding_jacobian[o][e] = d values[o] / d angle(embedding op e),
     * where e indexes embedding ops in circuit order (the same order as
     * Circuit::embedding_op_indices()). Used by classical-preprocessing
     * frameworks (QTN-VQC) that backpropagate into their feature maps.
     */
    std::vector<std::vector<double>> embedding_jacobian;
    /** Number of (noiseless) circuit executions this computation cost. */
    std::uint64_t circuit_executions = 0;
};

/** Evaluate expectations only (one circuit execution). */
std::vector<double> expectations(const circ::Circuit &circuit,
                                 const std::vector<double> &params,
                                 const std::vector<double> &x,
                                 const std::vector<DiagonalObservable> &obs);

/**
 * Adjoint differentiation of one circuit, compiled once and bound to a
 * parameter vector at a time.
 *
 * compile() turns the circuit and its FusedProgram into two typed step
 * streams: the forward stream replays the fused entries, the reverse
 * stream holds one step per circuit op. Each step knows its kernel —
 * CX/CZ/SWAP run as permutation/phase passes (they are self-inverse,
 * so their daggers are themselves), diagonal 1-qubit gates (RZ/S/Sdg/Z)
 * as two multiplies per amplitude pair, everything else as a dense
 * Mat2/Mat4 — and where its matrix comes from:
 *
 *  - fixed gates: the fused matrices and every fixed-gate dagger are
 *    built once, by compile();
 *  - variational gates: U, U^dagger and dU/dtheta per parameter slot
 *    are built once per bind(params);
 *  - embedding gates: built per sample by run(), the only matrices a
 *    sample builds.
 *
 * run() is const: once bound, a program is shared read-only across
 * threads (the trainer binds once per mini-batch, then fans the batch
 * out). bind() must not race with run().
 *
 * Results are bit-identical to applying each op's dagger through the
 * dense kernels and differentiating through a copied state: the
 * permutation and diagonal kernels agree with the dense ones on every
 * nonzero amplitude, and the one-pass derivative overlap keeps the
 * dense kernels' per-amplitude arithmetic (no FMA) and the index order
 * of the overlap sum.
 */
class AdjointProgram
{
  public:
    /**
     * Compile `circuit`; `program` must be FusedProgram::compile(circuit).
     * Rejects an amplitude embedding anywhere but the first op.
     */
    static AdjointProgram compile(const circ::Circuit &circuit,
                                  const FusedProgram &program);

    /** Build every variational matrix for `params`. */
    void bind(const std::vector<double> &params);

    /**
     * Expectations of `obs` at sample `x` and their Jacobian at the
     * bound parameters: one forward pass plus one reverse sweep per
     * observable. With `with_embedding_grads`, also fills
     * GradientResult::embedding_jacobian (derivatives with respect to
     * each embedding gate's resolved angle; amplitude and product
     * embeddings are rejected in that mode).
     */
    GradientResult run(const std::vector<double> &x,
                       const std::vector<DiagonalObservable> &obs,
                       bool with_embedding_grads = false) const;

  private:
    /** Where a step's matrices live. */
    enum class Table : std::uint8_t {
        Fixed, ///< built by compile()
        Bound, ///< built by bind()
        Sample ///< built per run()
    };

    /** Matrices of one table; 1-qubit kernels index m2, 2-qubit m4. */
    struct Mats
    {
        std::vector<Mat2> m2;
        std::vector<Mat4> m4;
    };

    struct Step
    {
        enum class Kind : std::uint8_t {
            Dense1,  ///< Mat2 at `mat`
            Diag1,   ///< diagonal of the Mat2 at `mat`
            Dense2,  ///< Mat4 at `mat`
            CX,
            CZ,
            SWAP,
            AmpEmbed ///< forward only: the state preparation
        };
        Kind kind = Kind::Dense1;
        Table table = Table::Fixed;
        int q0 = -1;
        int q1 = -1;
        /** Index of U (forward) or U^dagger (reverse) in its table. */
        std::uint32_t mat = 0;
        /**
         * Reverse steps of parametric ops: the derivative matrix of
         * slot s sits at mat + 1 + s, and its Jacobian column is
         * column + s (the embedding position for embedding ops).
         */
        int column = -1;
        int slots = 0;
        bool embedding = false;
    };

    /**
     * A parametric op and its matrix slots: U at `base`, U^dagger at
     * base + 1, dU/d(slot s) at base + 2 + s.
     */
    struct Parametric
    {
        circ::Op op;
        std::uint32_t base = 0;
    };

    void apply(const Step &step, const Mats &sample, StateVector &psi) const;
    const Mats &table(const Step &step, const Mats &sample) const;
    double derivative_overlap(const Step &step, int slot,
                              const Mats &sample, const StateVector &lambda,
                              const StateVector &psi) const;
    Mats sample_mats(const std::vector<double> &x, bool with_derivs) const;
    /** U, U^dagger and `derivs` slot derivatives of `op` from `base`. */
    static void fill(Mats &mats, std::uint32_t base, const circ::Op &op,
                     const std::array<double, 3> &angles, int derivs);

    FusedProgram program_;
    /** Forward step per program barrier, in program order. */
    std::vector<Step> barriers_;
    /** Reverse step per circuit op, last op first. */
    std::vector<Step> reverse_;
    /** Variational ops; their slots are in the Bound table. */
    std::vector<Parametric> variational_;
    /** Embedding ops; their slots are in the Sample table. */
    std::vector<Parametric> embeddings_;
    Mats fixed_;
    Mats bound_;
    std::size_t sample_m2_ = 0;
    std::size_t sample_m4_ = 0;
    int num_qubits_ = 1;
    int num_params_ = 0;
    std::size_t num_embeds_ = 0;
    bool bound_once_ = false;
    bool has_amp_embed_ = false;
    bool has_product_embed_ = false;
};

/**
 * Adjoint differentiation: AdjointProgram::compile(circuit, program),
 * bound to `params` and run at `x`. Requires a unitary circuit (an
 * amplitude embedding is allowed only as the first op).
 *
 * `program` must be FusedProgram::compile(circuit). Callers that
 * differentiate one circuit over many samples (the trainer) compile an
 * AdjointProgram once and bind it per parameter vector instead.
 */
GradientResult adjoint_gradient(const circ::Circuit &circuit,
                                const FusedProgram &program,
                                const std::vector<double> &params,
                                const std::vector<double> &x,
                                const std::vector<DiagonalObservable> &obs,
                                bool with_embedding_grads = false);

/** As above, compiling `circuit` for this one call. */
GradientResult adjoint_gradient(const circ::Circuit &circuit,
                                const std::vector<double> &params,
                                const std::vector<double> &x,
                                const std::vector<DiagonalObservable> &obs,
                                bool with_embedding_grads = false);

/**
 * Parameter-shift differentiation: exact two-term rule for single-qubit
 * rotations and U3 slots, four-term rule for CRY. All 2P+1 runs replay
 * `program`, which must be FusedProgram::compile(circuit).
 */
GradientResult parameter_shift_gradient(
    const circ::Circuit &circuit, const FusedProgram &program,
    const std::vector<double> &params, const std::vector<double> &x,
    const std::vector<DiagonalObservable> &obs);

/** As above, compiling `circuit` once for the whole call. */
GradientResult parameter_shift_gradient(
    const circ::Circuit &circuit, const std::vector<double> &params,
    const std::vector<double> &x,
    const std::vector<DiagonalObservable> &obs);

} // namespace elv::sim
