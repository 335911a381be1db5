#include "sim/gradients.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace elv::sim {

namespace {

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

AdjointProgram
AdjointProgram::compile(const circ::Circuit &circuit,
                        const FusedProgram &program)
{
    require_compiled_from(program, circuit);
    const auto &ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == circ::GateKind::AmpEmbed)
            ELV_REQUIRE(i == 0, "amplitude embedding must be the first op "
                                "for adjoint differentiation");
    }

    AdjointProgram prog;
    prog.program_ = program;
    prog.num_qubits_ = circuit.num_qubits();
    prog.num_params_ = circuit.num_params();

    // The kernel and matrix slot of a step applying `op`'s matrix U at
    // `mat` (U^dagger sits at mat + 1 in parametric tables).
    auto step_for = [](const circ::Op &op, Table table, std::uint32_t mat) {
        Step s;
        s.table = table;
        s.mat = mat;
        s.q0 = op.qubits[0];
        s.q1 = op.qubits[1];
        switch (op.kind) {
          case circ::GateKind::CX: s.kind = Step::Kind::CX; break;
          case circ::GateKind::CZ: s.kind = Step::Kind::CZ; break;
          case circ::GateKind::SWAP: s.kind = Step::Kind::SWAP; break;
          default:
            s.kind = op.num_qubits() == 2 ? Step::Kind::Dense2
                     : circ::gate_is_diagonal_1q(op.kind)
                         ? Step::Kind::Diag1
                         : Step::Kind::Dense1;
        }
        return s;
    };
    // U, U^dagger and one derivative per slot, appended to `mats`.
    auto reserve = [](const circ::Op &op, Mats &mats) {
        const std::size_t n = 2 + static_cast<std::size_t>(op.num_params());
        if (op.num_qubits() == 1) {
            mats.m2.resize(mats.m2.size() + n);
            return static_cast<std::uint32_t>(mats.m2.size() - n);
        }
        mats.m4.resize(mats.m4.size() + n);
        return static_cast<std::uint32_t>(mats.m4.size() - n);
    };

    // Forward barriers (program order = circuit order of the parametric
    // ops) and the matching reverse step of every parametric op.
    Mats sample_layout;
    std::vector<Step> reverse_of(ops.size());
    int embed_position = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const circ::Op &op = ops[i];
        if (op.kind == circ::GateKind::AmpEmbed) {
            prog.has_amp_embed_ = true;
            Step s;
            s.kind = Step::Kind::AmpEmbed;
            prog.barriers_.push_back(s);
            ++embed_position;
            continue;
        }
        if (op.role == circ::ParamRole::None) {
            // Fixed gate: its dagger is built here, once. CX/CZ/SWAP
            // are self-inverse and carry no matrix at all.
            Step s = step_for(op, Table::Fixed, 0);
            const auto angles = circ::op_angles(op, {}, {});
            if (s.kind == Step::Kind::Dense2) {
                s.mat = static_cast<std::uint32_t>(prog.fixed_.m4.size());
                prog.fixed_.m4.push_back(
                    dagger(gate_matrix_2q(op.kind, angles)));
            } else if (op.num_qubits() == 1) {
                s.mat = static_cast<std::uint32_t>(prog.fixed_.m2.size());
                prog.fixed_.m2.push_back(
                    dagger(gate_matrix_1q(op.kind, angles)));
            }
            reverse_of[i] = s;
            continue;
        }
        const bool variational = op.role == circ::ParamRole::Variational;
        Mats &layout = variational ? prog.bound_ : sample_layout;
        const std::uint32_t base = reserve(op, layout);
        (variational ? prog.variational_ : prog.embeddings_)
            .push_back({op, base});
        prog.barriers_.push_back(
            step_for(op, variational ? Table::Bound : Table::Sample, base));
        Step r = step_for(op, variational ? Table::Bound : Table::Sample,
                          base + 1);
        if (variational) {
            r.column = op.param_index;
            r.slots = op.num_params();
        } else {
            prog.has_product_embed_ |= op.data_index2 >= 0;
            r.column = embed_position++;
            r.slots = 1;
            r.embedding = true;
        }
        reverse_of[i] = r;
    }
    prog.num_embeds_ = static_cast<std::size_t>(embed_position);
    prog.sample_m2_ = sample_layout.m2.size();
    prog.sample_m4_ = sample_layout.m4.size();

    // The sweep undoes every op after the state preparation.
    const std::size_t first = prog.has_amp_embed_ ? 1 : 0;
    for (std::size_t k = ops.size(); k-- > first;)
        prog.reverse_.push_back(reverse_of[k]);
    return prog;
}

void
AdjointProgram::fill(Mats &mats, std::uint32_t base, const circ::Op &op,
                     const std::array<double, 3> &angles, int derivs)
{
    if (op.num_qubits() == 1) {
        Mat2 *m = &mats.m2[base];
        m[0] = gate_matrix_1q(op.kind, angles);
        m[1] = dagger(m[0]);
        for (int s = 0; s < derivs; ++s)
            m[2 + s] = gate_matrix_1q_deriv(op.kind, angles, s);
        return;
    }
    Mat4 *m = &mats.m4[base];
    m[0] = gate_matrix_2q(op.kind, angles);
    m[1] = dagger(m[0]);
    for (int s = 0; s < derivs; ++s)
        m[2 + s] = gate_matrix_2q_deriv(op.kind, angles, s);
}

void
AdjointProgram::bind(const std::vector<double> &params)
{
    for (const auto &[op, base] : variational_)
        fill(bound_, base, op, circ::op_angles(op, params, {}),
             op.num_params());
    bound_once_ = true;
}

AdjointProgram::Mats
AdjointProgram::sample_mats(const std::vector<double> &x,
                            bool with_derivs) const
{
    Mats mats;
    mats.m2.resize(sample_m2_);
    mats.m4.resize(sample_m4_);
    for (const auto &[op, base] : embeddings_)
        fill(mats, base, op, circ::op_angles(op, {}, x), with_derivs ? 1 : 0);
    return mats;
}

const AdjointProgram::Mats &
AdjointProgram::table(const Step &step, const Mats &sample) const
{
    switch (step.table) {
      case Table::Fixed: return fixed_;
      case Table::Bound: return bound_;
      case Table::Sample: break;
    }
    return sample;
}

void
AdjointProgram::apply(const Step &step, const Mats &sample,
                      StateVector &psi) const
{
    switch (step.kind) {
      case Step::Kind::Dense1:
        psi.apply_1q(table(step, sample).m2[step.mat], step.q0);
        break;
      case Step::Kind::Diag1: {
        const Mat2 &m = table(step, sample).m2[step.mat];
        psi.apply_diag_1q(m[0][0], m[1][1], step.q0);
        break;
      }
      case Step::Kind::Dense2:
        psi.apply_2q(table(step, sample).m4[step.mat], step.q0, step.q1);
        break;
      case Step::Kind::CX:
        psi.apply_cx(step.q0, step.q1);
        break;
      case Step::Kind::CZ:
        psi.apply_cz(step.q0, step.q1);
        break;
      case Step::Kind::SWAP:
        psi.apply_swap(step.q0, step.q1);
        break;
      case Step::Kind::AmpEmbed:
        ELV_REQUIRE(false, "the state preparation needs its sample");
    }
}

namespace {

/**
 * w * a with std::complex's operations (re = w.re a.re - w.im a.im,
 * im = w.re a.im + w.im a.re), minus its NaN-recovery branch: the same
 * bits on finite values.
 */
inline Amp
mul(Amp w, Amp a)
{
    return {w.real() * a.real() - w.imag() * a.imag(),
            w.real() * a.imag() + w.imag() * a.real()};
}

/** Re(conj(l) * mu), rounded exactly as std::complex rounds it. */
inline double
re_conj_mul(Amp l, Amp mu)
{
    return l.real() * mu.real() + l.imag() * mu.imag();
}

} // namespace

/**
 * 2 Re sum_j conj(lambda_j) (D psi)_j for the derivative matrix D of
 * `slot`, in one pass. (D psi)_j is formed exactly as the dense
 * kernels form it (the 1-qubit pair sum, the 2-qubit sum accumulated
 * from zero in column order) and the overlap sums in index order, so
 * the result matches applying D to a copy of psi and then summing.
 * Only the real part is accumulated: complex addition is
 * componentwise, so the imaginary part never feeds it.
 */
double
AdjointProgram::derivative_overlap(const Step &step, int slot,
                                   const Mats &sample,
                                   const StateVector &lambda,
                                   const StateVector &psi) const
{
    const Mats &mats = table(step, sample);
    const std::size_t d = step.mat + 1 + static_cast<std::size_t>(slot);
    const Amp *l = lambda.amps().data();
    const Amp *a = psi.amps().data();
    const std::size_t dim = psi.dim();
    double acc = 0.0;
    if (step.kind == Step::Kind::Dense2) {
        const Mat4 &m = mats.m4[d];
        const std::size_t m0 = std::size_t{1} << step.q0;
        const std::size_t m1 = std::size_t{1} << step.q1;
        for (std::size_t i = 0; i < dim; ++i) {
            const std::size_t base = i & ~(m0 | m1);
            const Amp in[4] = {a[base], a[base | m1], a[base | m0],
                               a[base | m0 | m1]};
            const auto &row = m[((i & m0) ? std::size_t{2} : 0) +
                                ((i & m1) ? std::size_t{1} : 0)];
            Amp mu(0);
            for (std::size_t c = 0; c < 4; ++c)
                mu += mul(row[c], in[c]);
            acc += re_conj_mul(l[i], mu);
        }
        return 2.0 * acc;
    }
    // 1-qubit: each block of 2s amplitudes holds s with the qubit clear,
    // then s with it set, so walking the halves in turn is index order.
    const Mat2 &m = mats.m2[d];
    const std::size_t s = std::size_t{1} << step.q0;
    if (step.kind == Step::Kind::Diag1) {
        for (std::size_t base = 0; base < dim; base += 2 * s) {
            for (std::size_t i = base; i < base + s; ++i)
                acc += re_conj_mul(l[i], mul(m[0][0], a[i]));
            for (std::size_t i = base + s; i < base + 2 * s; ++i)
                acc += re_conj_mul(l[i], mul(m[1][1], a[i]));
        }
        return 2.0 * acc;
    }
    for (std::size_t base = 0; base < dim; base += 2 * s) {
        for (std::size_t i = base; i < base + s; ++i)
            acc += re_conj_mul(l[i],
                               mul(m[0][0], a[i]) + mul(m[0][1], a[i + s]));
        for (std::size_t i = base + s; i < base + 2 * s; ++i)
            acc += re_conj_mul(l[i],
                               mul(m[1][0], a[i - s]) + mul(m[1][1], a[i]));
    }
    return 2.0 * acc;
}

GradientResult
AdjointProgram::run(const std::vector<double> &x,
                    const std::vector<DiagonalObservable> &obs,
                    bool with_embedding_grads) const
{
    ELV_REQUIRE(bound_once_ || variational_.empty(),
                "adjoint program run before bind()");
    if (with_embedding_grads) {
        ELV_REQUIRE(!has_amp_embed_,
                    "amplitude embeddings have no angle gradient");
        ELV_REQUIRE(!has_product_embed_,
                    "product embeddings unsupported for embedding "
                    "gradients");
    }
    const Mats sample = sample_mats(x, with_embedding_grads);

    GradientResult result;
    result.values.resize(obs.size());
    result.jacobian.assign(
        obs.size(),
        std::vector<double>(static_cast<std::size_t>(num_params_), 0.0));
    if (with_embedding_grads)
        result.embedding_jacobian.assign(
            obs.size(), std::vector<double>(num_embeds_, 0.0));
    result.circuit_executions = 1;

    StateVector forward(num_qubits_);
    program_.run_with(forward, [&](std::size_t k, const FusedOp &,
                                   StateVector &state) {
        const Step &step = barriers_[k];
        if (step.kind == Step::Kind::AmpEmbed)
            state.set_amplitude_embedding(x);
        else
            apply(step, sample, state);
    });

    // Sweep states are allocated once and reassigned in place.
    StateVector psi(num_qubits_);
    StateVector lambda(num_qubits_);
    for (std::size_t oi = 0; oi < obs.size(); ++oi) {
        result.values[oi] = obs[oi].expectation(forward);

        psi = forward;
        lambda = forward;
        obs[oi].apply_to(lambda);

        for (const Step &step : reverse_) {
            apply(step, sample, psi);
            if (step.slots > 0 && (!step.embedding || with_embedding_grads)) {
                auto &row = step.embedding ? result.embedding_jacobian[oi]
                                           : result.jacobian[oi];
                for (int slot = 0; slot < step.slots; ++slot)
                    row[static_cast<std::size_t>(step.column + slot)] =
                        derivative_overlap(step, slot, sample, lambda, psi);
            }
            apply(step, sample, lambda);
        }
    }
    return result;
}

GradientResult
adjoint_gradient(const circ::Circuit &circuit, const FusedProgram &program,
                 const std::vector<double> &params,
                 const std::vector<double> &x,
                 const std::vector<DiagonalObservable> &obs,
                 bool with_embedding_grads)
{
    AdjointProgram adjoint = AdjointProgram::compile(circuit, program);
    adjoint.bind(params);
    return adjoint.run(x, obs, with_embedding_grads);
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
