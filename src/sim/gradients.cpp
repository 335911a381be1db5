#include "sim/gradients.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "sim/fusion.hpp"

namespace elv::sim {

namespace {

/**
 * U_op^dagger for a fixed-angle op, built once and applied to both
 * adjoint sweep states.
 */
class DaggerGate
{
  public:
    DaggerGate(const circ::Op &op, const std::array<double, 3> &angles)
        : op_(op)
    {
        if (op.num_qubits() == 1)
            m2_ = dagger(gate_matrix_1q(op.kind, angles));
        else
            m4_ = dagger(gate_matrix_2q(op.kind, angles));
    }

    void apply(StateVector &psi) const
    {
        if (op_.num_qubits() == 1)
            psi.apply_1q(m2_, op_.qubits[0]);
        else
            psi.apply_2q(m4_, op_.qubits[0], op_.qubits[1]);
    }

  private:
    const circ::Op &op_;
    Mat2 m2_{};
    Mat4 m4_{};
};

/**
 * 2 * Re(<lhs| M |rhs>) where M is the derivative matrix of the op.
 * `mu` is scratch of the same size, overwritten with M |rhs>.
 */
double
deriv_overlap(const StateVector &lhs, const StateVector &rhs,
              StateVector &mu, const circ::Op &op,
              const std::array<double, 3> &angles, int slot)
{
    mu = rhs;
    if (op.num_qubits() == 1)
        mu.apply_1q(gate_matrix_1q_deriv(op.kind, angles, slot),
                    op.qubits[0]);
    else
        mu.apply_2q(gate_matrix_2q_deriv(op.kind, angles, slot),
                    op.qubits[0], op.qubits[1]);
    Amp acc(0);
    for (std::size_t i = 0; i < mu.dim(); ++i)
        acc += std::conj(lhs.amp(i)) * mu.amp(i);
    return 2.0 * acc.real();
}

void
require_compiled_from(const FusedProgram &program,
                      const circ::Circuit &circuit)
{
    ELV_REQUIRE(program.num_qubits() == circuit.num_qubits() &&
                    program.source_ops() == circuit.ops().size(),
                "fused program was not compiled from this circuit");
}

/** Expectations of `obs` after running `program` into `psi`. */
std::vector<double>
run_expectations(const FusedProgram &program, StateVector &psi,
                 const std::vector<double> &params,
                 const std::vector<double> &x,
                 const std::vector<DiagonalObservable> &obs)
{
    program.run(psi, params, x);
    std::vector<double> values;
    values.reserve(obs.size());
    for (const auto &o : obs)
        values.push_back(o.expectation(psi));
    return values;
}

} // namespace

std::vector<double>
expectations(const circ::Circuit &circuit, const std::vector<double> &params,
             const std::vector<double> &x,
             const std::vector<DiagonalObservable> &obs)
{
    StateVector psi(circuit.num_qubits());
    return run_expectations(FusedProgram::compile(circuit), psi, params, x,
                            obs);
}

GradientResult
adjoint_gradient(const circ::Circuit &circuit, const FusedProgram &program,
                 const std::vector<double> &params,
                 const std::vector<double> &x,
                 const std::vector<DiagonalObservable> &obs,
                 bool with_embedding_grads)
{
    require_compiled_from(program, circuit);
    const auto &ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == circ::GateKind::AmpEmbed)
            ELV_REQUIRE(i == 0, "amplitude embedding must be the first op "
                                "for adjoint differentiation");
    }

    // Map op index -> position in embedding_op_indices() order.
    std::vector<int> embed_position(ops.size(), -1);
    std::size_t num_embeds = 0;
    if (with_embedding_grads) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].role != circ::ParamRole::Embedding)
                continue;
            ELV_REQUIRE(ops[i].kind != circ::GateKind::AmpEmbed,
                        "amplitude embeddings have no angle gradient");
            ELV_REQUIRE(ops[i].data_index2 < 0,
                        "product embeddings unsupported for embedding "
                        "gradients");
            embed_position[i] = static_cast<int>(num_embeds++);
        }
    }

    GradientResult result;
    result.values.resize(obs.size());
    result.jacobian.assign(obs.size(),
                           std::vector<double>(
                               static_cast<std::size_t>(
                                   circuit.num_params()),
                               0.0));
    if (with_embedding_grads)
        result.embedding_jacobian.assign(
            obs.size(), std::vector<double>(num_embeds, 0.0));
    result.circuit_executions = 1;

    StateVector forward(circuit.num_qubits());
    // Fused forward pass; the reverse sweep stays op-by-op because it
    // needs per-op derivative insertions.
    program.run(forward, params, x);

    // Sweep states and the derivative scratch are allocated once and
    // reassigned in place (equal sizes never reallocate).
    StateVector psi(circuit.num_qubits());
    StateVector lambda(circuit.num_qubits());
    StateVector mu(circuit.num_qubits());
    for (std::size_t oi = 0; oi < obs.size(); ++oi) {
        result.values[oi] = obs[oi].expectation(forward);

        psi = forward;
        lambda = forward;
        obs[oi].apply_to(lambda);

        for (std::size_t k = ops.size(); k-- > 0;) {
            const circ::Op &op = ops[k];
            if (op.kind == circ::GateKind::AmpEmbed)
                break; // state preparation: nothing differentiable before
            const auto angles = circ::op_angles(op, params, x);
            const DaggerGate undo(op, angles);
            undo.apply(psi);
            if (op.role == circ::ParamRole::Variational) {
                for (int slot = 0; slot < op.num_params(); ++slot) {
                    result.jacobian[oi][static_cast<std::size_t>(
                        op.param_index + slot)] =
                        deriv_overlap(lambda, psi, mu, op, angles, slot);
                }
            } else if (with_embedding_grads &&
                       op.role == circ::ParamRole::Embedding) {
                result.embedding_jacobian[oi][static_cast<std::size_t>(
                    embed_position[k])] =
                    deriv_overlap(lambda, psi, mu, op, angles, 0);
            }
            undo.apply(lambda);
        }
    }
    return result;
}

GradientResult
adjoint_gradient(const circ::Circuit &circuit,
                 const std::vector<double> &params,
                 const std::vector<double> &x,
                 const std::vector<DiagonalObservable> &obs,
                 bool with_embedding_grads)
{
    return adjoint_gradient(circuit, FusedProgram::compile(circuit), params,
                            x, obs, with_embedding_grads);
}

GradientResult
parameter_shift_gradient(const circ::Circuit &circuit,
                         const FusedProgram &program,
                         const std::vector<double> &params,
                         const std::vector<double> &x,
                         const std::vector<DiagonalObservable> &obs)
{
    require_compiled_from(program, circuit);
    StateVector psi(circuit.num_qubits());
    GradientResult result;
    result.values = run_expectations(program, psi, params, x, obs);
    result.circuit_executions = 1;
    result.jacobian.assign(
        obs.size(),
        std::vector<double>(static_cast<std::size_t>(circuit.num_params()),
                            0.0));

    std::vector<double> shifted = params;
    auto eval_shifted = [&](std::size_t pi, double shift) {
        shifted[pi] = params[pi] + shift;
        ++result.circuit_executions;
        auto values = run_expectations(program, psi, shifted, x, obs);
        shifted[pi] = params[pi];
        return values;
    };

    for (const circ::Op &op : circuit.ops()) {
        if (op.role != circ::ParamRole::Variational)
            continue;
        for (int slot = 0; slot < op.num_params(); ++slot) {
            const std::size_t pi =
                static_cast<std::size_t>(op.param_index + slot);
            if (op.kind == circ::GateKind::CRY) {
                // Four-term rule for generators with eigenvalues
                // {0, +-1/2}: frequencies {1/2, 1}.
                const double c1 = (std::sqrt(2.0) + 1.0) /
                                  (4.0 * std::sqrt(2.0));
                const double c2 = (std::sqrt(2.0) - 1.0) /
                                  (4.0 * std::sqrt(2.0));
                const auto p1 = eval_shifted(pi, M_PI / 2);
                const auto m1 = eval_shifted(pi, -M_PI / 2);
                const auto p2 = eval_shifted(pi, 3 * M_PI / 2);
                const auto m2 = eval_shifted(pi, -3 * M_PI / 2);
                for (std::size_t oi = 0; oi < obs.size(); ++oi)
                    result.jacobian[oi][pi] =
                        c1 * (p1[oi] - m1[oi]) - c2 * (p2[oi] - m2[oi]);
            } else {
                // Exact two-term rule for rotations with generator
                // eigenvalues +-1/2.
                const auto plus = eval_shifted(pi, M_PI / 2);
                const auto minus = eval_shifted(pi, -M_PI / 2);
                for (std::size_t oi = 0; oi < obs.size(); ++oi)
                    result.jacobian[oi][pi] =
                        0.5 * (plus[oi] - minus[oi]);
            }
        }
    }
    return result;
}

GradientResult
parameter_shift_gradient(const circ::Circuit &circuit,
                         const std::vector<double> &params,
                         const std::vector<double> &x,
                         const std::vector<DiagonalObservable> &obs)
{
    return parameter_shift_gradient(circuit, FusedProgram::compile(circuit),
                                    params, x, obs);
}

} // namespace elv::sim
