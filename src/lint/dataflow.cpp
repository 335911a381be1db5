#include "lint/dataflow.hpp"

#include <algorithm>

namespace elv::lint {

using circ::GateKind;
using circ::Op;
using circ::ParamRole;

AbstractState
AbstractState::bottom(const CircuitView &view)
{
    AbstractState state;
    state.qubit.assign(
        static_cast<std::size_t>(std::max(0, view.num_qubits)), 0);
    state.param.assign(
        static_cast<std::size_t>(std::max(0, view.num_params)), 0);
    return state;
}

bool
AbstractState::join(const AbstractState &other)
{
    bool changed = false;
    const std::size_t nq = std::min(qubit.size(), other.qubit.size());
    for (std::size_t i = 0; i < nq; ++i) {
        if (other.qubit[i] && !qubit[i]) {
            qubit[i] = 1;
            changed = true;
        }
    }
    const std::size_t np = std::min(param.size(), other.param.size());
    for (std::size_t i = 0; i < np; ++i) {
        if (other.param[i] && !param[i]) {
            param[i] = 1;
            changed = true;
        }
    }
    return changed;
}

void
AbstractState::mark_qubit(int q)
{
    if (q >= 0 && static_cast<std::size_t>(q) < qubit.size())
        qubit[static_cast<std::size_t>(q)] = 1;
}

void
AbstractState::mark_params(int slot, int count)
{
    for (int k = 0; k < count; ++k) {
        const int s = slot + k;
        if (s >= 0 && static_cast<std::size_t>(s) < param.size())
            param[static_cast<std::size_t>(s)] = 1;
    }
}

bool
AbstractState::qubit_set(int q) const
{
    return q >= 0 && static_cast<std::size_t>(q) < qubit.size() &&
           qubit[static_cast<std::size_t>(q)];
}

namespace {

/** A fixed member of the Clifford group (no run-time angles at all). */
bool
fixed_clifford(const Op &op)
{
    return op.kind != GateKind::AmpEmbed && op.role == ParamRole::None &&
           gate_is_clifford(op.kind);
}

/** An op with no variational binding (constant across training steps). */
bool
param_free(const Op &op)
{
    return op.role != ParamRole::Variational;
}

} // namespace

std::vector<int>
LightconeAnalysis::dead_ops() const
{
    std::vector<int> dead;
    for (std::size_t i = 0; i < live_ops.size(); ++i)
        if (!live_ops[i])
            dead.push_back(static_cast<int>(i));
    return dead;
}

std::vector<int>
LightconeAnalysis::dead_params() const
{
    std::vector<int> dead;
    for (std::size_t i = 0; i < live_params.size(); ++i)
        if (!live_params[i])
            dead.push_back(static_cast<int>(i));
    return dead;
}

LightconeAnalysis
analyze_lightcone(const CircuitView &view)
{
    LightconeAnalysis analysis;
    AbstractState state = AbstractState::bottom(view);
    analysis.no_measurements = view.measured.empty();
    for (int q : view.measured)
        state.mark_qubit(q);

    // Backward transfer: an op is live iff it touches a cone qubit at
    // its position; a live op pulls every operand into the cone
    // (2-qubit gates carry influence both ways — phase kickback makes
    // even a "control" qubit's reduced state gate-dependent), and a
    // live variational op keeps its parameter slots alive.
    run_to_fixpoint(
        view, Direction::Backward, state,
        [](const Op &op, int, AbstractState &s) {
            bool live = false;
            if (op.kind == GateKind::AmpEmbed) {
                live = std::find(s.qubit.begin(), s.qubit.end(), 1) !=
                       s.qubit.end();
                if (live)
                    std::fill(s.qubit.begin(), s.qubit.end(), 1);
            } else {
                const int arity = op.num_qubits();
                for (int k = 0; k < arity; ++k)
                    live |= s.qubit_set(
                        op.qubits[static_cast<std::size_t>(k)]);
                if (live)
                    for (int k = 0; k < arity; ++k)
                        s.mark_qubit(
                            op.qubits[static_cast<std::size_t>(k)]);
            }
            if (live && op.role == ParamRole::Variational)
                s.mark_params(op.param_index, op.num_params());
            return live;
        },
        analysis.live_ops);

    analysis.live_qubits = state.qubit;
    analysis.live_params = state.param;
    return analysis;
}

CliffordRegions
analyze_clifford_regions(const CircuitView &view)
{
    // The region lattice is a chain over op positions ("still inside
    // the prefix"), so a single sweep per direction IS the fixed point;
    // plain scans keep the encoding direct instead of forcing a
    // positional property into the per-qubit domain.
    CliffordRegions regions;
    const std::size_t n = view.ops.size();
    std::size_t i = 0;
    while (i < n && fixed_clifford(view.ops[i]))
        ++i;
    regions.clifford_prefix = static_cast<int>(i);
    std::size_t j = n;
    while (j > i && fixed_clifford(view.ops[j - 1]))
        --j;
    regions.clifford_suffix = static_cast<int>(n - j);
    std::size_t k = 0;
    while (k < n && param_free(view.ops[k]))
        ++k;
    regions.param_free_prefix = static_cast<int>(k);
    regions.fully_clifford =
        n > 0 && regions.clifford_prefix == static_cast<int>(n);
    regions.param_free = regions.param_free_prefix == static_cast<int>(n);
    return regions;
}

DataflowAnalysis
analyze_dataflow(const CircuitView &view)
{
    return {analyze_lightcone(view), analyze_clifford_regions(view)};
}

FixResult
elide_dead_structure(const circ::Circuit &circuit)
{
    FixResult result;
    const LightconeAnalysis analysis =
        analyze_lightcone(view_of(circuit));
    const std::vector<int> dead = analysis.dead_ops();
    if (analysis.no_measurements || dead.empty() ||
        dead.size() == circuit.ops().size()) {
        result.circuit = circuit;
        result.param_map.resize(
            static_cast<std::size_t>(circuit.num_params()));
        for (std::size_t s = 0; s < result.param_map.size(); ++s)
            result.param_map[s] = static_cast<int>(s);
        return result;
    }

    // Dense renumbering in op order over the surviving variational
    // ops — the only slot layout the native text format round-trips.
    result.param_map.assign(
        static_cast<std::size_t>(circuit.num_params()), -1);
    int next = 0;
    for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
        const Op &op = circuit.ops()[i];
        if (!analysis.live_ops[i] ||
            op.role != ParamRole::Variational || op.param_index < 0)
            continue;
        for (int k = 0; k < op.num_params(); ++k) {
            const int s = op.param_index + k;
            if (s < circuit.num_params() &&
                result.param_map[static_cast<std::size_t>(s)] < 0)
                result.param_map[static_cast<std::size_t>(s)] = next++;
        }
    }

    circ::Circuit fixed(circuit.num_qubits());
    for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
        if (!analysis.live_ops[i])
            continue;
        Op op = circuit.ops()[i];
        if (op.role == ParamRole::Variational && op.param_index >= 0 &&
            op.param_index < circuit.num_params())
            op.param_index = result.param_map[static_cast<std::size_t>(
                op.param_index)];
        fixed.append_op(op);
    }
    fixed.set_measured(circuit.measured());
    result.circuit = std::move(fixed);
    result.ops_elided = dead.size();
    result.params_elided = static_cast<std::size_t>(
        std::max(0, circuit.num_params() - next));
    return result;
}

} // namespace elv::lint
