#include "circuit/circuit.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.hpp"

namespace elv::circ {

std::array<double, 3>
op_angles(const Op &op, const std::vector<double> &params,
          const std::vector<double> &x)
{
    std::array<double, 3> angles = {0.0, 0.0, 0.0};
    const int np = op.num_params();
    if (op.role == ParamRole::Variational) {
        ELV_REQUIRE(op.param_index >= 0 &&
                        op.param_index + np <=
                            static_cast<int>(params.size()),
                    "parameter vector too short for op");
        for (int i = 0; i < np; ++i)
            angles[static_cast<std::size_t>(i)] =
                params[static_cast<std::size_t>(op.param_index + i)];
    } else if (op.role == ParamRole::Embedding) {
        ELV_REQUIRE(op.data_index >= 0 &&
                        op.data_index < static_cast<int>(x.size()),
                    "input sample too short for embedding gate");
        double angle = x[static_cast<std::size_t>(op.data_index)];
        if (op.data_index2 >= 0) {
            ELV_REQUIRE(op.data_index2 < static_cast<int>(x.size()),
                        "input sample too short for product embedding");
            angle *= x[static_cast<std::size_t>(op.data_index2)];
        }
        angles[0] = angle;
    }
    return angles;
}

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits)
{
    ELV_REQUIRE(num_qubits > 0, "circuit needs at least one qubit");
}

void
Circuit::check_qubits(const std::vector<int> &qubits, int expected) const
{
    ELV_REQUIRE(static_cast<int>(qubits.size()) == expected,
                "wrong qubit count for gate");
    for (int q : qubits)
        ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    if (expected == 2)
        ELV_REQUIRE(qubits[0] != qubits[1], "2-qubit gate on equal qubits");
}

std::size_t
Circuit::add_gate(GateKind kind, const std::vector<int> &qubits)
{
    ELV_REQUIRE(!gate_is_parametric(kind) && kind != GateKind::AmpEmbed,
                "add_gate is for fixed gates");
    check_qubits(qubits, gate_num_qubits(kind));
    Op op;
    op.kind = kind;
    op.qubits[0] = qubits[0];
    if (qubits.size() > 1)
        op.qubits[1] = qubits[1];
    ops_.push_back(op);
    return ops_.size() - 1;
}

std::size_t
Circuit::add_variational(GateKind kind, const std::vector<int> &qubits)
{
    ELV_REQUIRE(gate_is_parametric(kind),
                "add_variational needs a parametric gate");
    check_qubits(qubits, gate_num_qubits(kind));
    Op op;
    op.kind = kind;
    op.qubits[0] = qubits[0];
    if (qubits.size() > 1)
        op.qubits[1] = qubits[1];
    op.role = ParamRole::Variational;
    ops_.push_back(op);
    reindex_params();
    return ops_.size() - 1;
}

std::size_t
Circuit::add_embedding(GateKind kind, const std::vector<int> &qubits,
                       int data_index, int data_index2)
{
    ELV_REQUIRE(gate_num_params(kind) == 1,
                "embedding gates must take exactly one parameter");
    ELV_REQUIRE(data_index >= 0, "negative data index");
    check_qubits(qubits, gate_num_qubits(kind));
    Op op;
    op.kind = kind;
    op.qubits[0] = qubits[0];
    if (qubits.size() > 1)
        op.qubits[1] = qubits[1];
    op.role = ParamRole::Embedding;
    op.data_index = data_index;
    op.data_index2 = data_index2;
    ops_.push_back(op);
    return ops_.size() - 1;
}

std::size_t
Circuit::add_amplitude_embedding()
{
    Op op;
    op.kind = GateKind::AmpEmbed;
    op.role = ParamRole::Embedding;
    op.data_index = 0;
    ops_.push_back(op);
    return ops_.size() - 1;
}

std::size_t
Circuit::append_op(const Op &op, const std::vector<int> &mapping)
{
    Op copy = op;
    if (!mapping.empty() && copy.kind != GateKind::AmpEmbed) {
        for (int k = 0; k < copy.num_qubits(); ++k) {
            const int lq = copy.qubits[static_cast<std::size_t>(k)];
            ELV_REQUIRE(lq >= 0 &&
                            lq < static_cast<int>(mapping.size()),
                        "mapping too short for op");
            copy.qubits[static_cast<std::size_t>(k)] =
                mapping[static_cast<std::size_t>(lq)];
        }
    }
    if (copy.kind != GateKind::AmpEmbed) {
        std::vector<int> qubits = {copy.qubits[0]};
        if (copy.num_qubits() == 2)
            qubits.push_back(copy.qubits[1]);
        check_qubits(qubits, copy.num_qubits());
    }
    if (copy.role == ParamRole::Variational) {
        ELV_REQUIRE(copy.param_index >= 0, "op lacks a parameter slot");
        params_pinned_ = true;
        num_params_ =
            std::max(num_params_, copy.param_index + copy.num_params());
    }
    ops_.push_back(copy);
    return ops_.size() - 1;
}

void
Circuit::designate_embedding(std::size_t op_index, int data_index)
{
    ELV_REQUIRE(op_index < ops_.size(), "op index out of range");
    Op &op = ops_[op_index];
    ELV_REQUIRE(op.role == ParamRole::Variational && op.num_params() == 1,
                "only 1-parameter variational gates can embed data");
    ELV_REQUIRE(data_index >= 0, "negative data index");
    op.role = ParamRole::Embedding;
    op.data_index = data_index;
    op.param_index = -1;
    reindex_params();
}

void
Circuit::set_measured(std::vector<int> qubits)
{
    std::set<int> seen;
    for (int q : qubits) {
        ELV_REQUIRE(q >= 0 && q < num_qubits_,
                    "measured qubit out of range");
        ELV_REQUIRE(seen.insert(q).second, "duplicate measured qubit");
    }
    measured_ = std::move(qubits);
}

void
Circuit::reindex_params()
{
    ELV_REQUIRE(!params_pinned_,
                "cannot re-index parameters after append_op pinned them");
    int next = 0;
    for (Op &op : ops_) {
        if (op.role == ParamRole::Variational) {
            op.param_index = next;
            next += op.num_params();
        }
    }
    num_params_ = next;
}

bool
Circuit::has_amplitude_embedding() const
{
    return count_kind(GateKind::AmpEmbed) > 0;
}

int
Circuit::num_embedding_gates() const
{
    int n = 0;
    for (const Op &op : ops_)
        if (op.role == ParamRole::Embedding)
            ++n;
    return n;
}

int
Circuit::num_data_features() const
{
    int highest = -1;
    for (const Op &op : ops_) {
        if (op.role != ParamRole::Embedding)
            continue;
        highest = std::max({highest, op.data_index, op.data_index2});
    }
    return highest + 1;
}

int
Circuit::depth() const
{
    std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
    for (const Op &op : ops_) {
        if (op.kind == GateKind::AmpEmbed) {
            const int top =
                *std::max_element(level.begin(), level.end()) + 1;
            std::fill(level.begin(), level.end(), top);
            continue;
        }
        int top = level[static_cast<std::size_t>(op.qubits[0])];
        if (op.num_qubits() == 2)
            top = std::max(top,
                           level[static_cast<std::size_t>(op.qubits[1])]);
        ++top;
        level[static_cast<std::size_t>(op.qubits[0])] = top;
        if (op.num_qubits() == 2)
            level[static_cast<std::size_t>(op.qubits[1])] = top;
    }
    return *std::max_element(level.begin(), level.end());
}

int
Circuit::count_1q() const
{
    int n = 0;
    for (const Op &op : ops_)
        if (op.kind != GateKind::AmpEmbed && op.num_qubits() == 1)
            ++n;
    return n;
}

int
Circuit::count_2q() const
{
    int n = 0;
    for (const Op &op : ops_)
        if (op.num_qubits() == 2)
            ++n;
    return n;
}

int
Circuit::count_kind(GateKind kind) const
{
    int n = 0;
    for (const Op &op : ops_)
        if (op.kind == kind)
            ++n;
    return n;
}

std::vector<int>
Circuit::touched_qubits() const
{
    std::set<int> touched;
    for (const Op &op : ops_) {
        if (op.kind == GateKind::AmpEmbed) {
            for (int q = 0; q < num_qubits_; ++q)
                touched.insert(q);
            continue;
        }
        touched.insert(op.qubits[0]);
        if (op.num_qubits() == 2)
            touched.insert(op.qubits[1]);
    }
    for (int q : measured_)
        touched.insert(q);
    return {touched.begin(), touched.end()};
}

std::vector<std::size_t>
Circuit::embedding_op_indices() const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ops_.size(); ++i)
        if (ops_[i].role == ParamRole::Embedding)
            idx.push_back(i);
    return idx;
}

std::vector<std::size_t>
Circuit::variational_op_indices() const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ops_.size(); ++i)
        if (ops_[i].role == ParamRole::Variational)
            idx.push_back(i);
    return idx;
}

std::string
Circuit::to_string() const
{
    std::ostringstream oss;
    oss << "Circuit(" << num_qubits_ << " qubits, " << num_params_
        << " params)\n";
    for (const Op &op : ops_) {
        oss << "  " << gate_name(op.kind);
        if (op.kind != GateKind::AmpEmbed) {
            oss << " q" << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << ",q" << op.qubits[1];
        }
        if (op.role == ParamRole::Variational)
            oss << " theta[" << op.param_index << "]";
        else if (op.role == ParamRole::Embedding &&
                 op.kind != GateKind::AmpEmbed) {
            oss << " x[" << op.data_index << "]";
            if (op.data_index2 >= 0)
                oss << "*x[" << op.data_index2 << "]";
        }
        oss << "\n";
    }
    oss << "  measure {";
    for (std::size_t i = 0; i < measured_.size(); ++i)
        oss << (i ? "," : "") << measured_[i];
    oss << "}\n";
    return oss.str();
}

Circuit
Circuit::remapped(const std::vector<int> &mapping, int new_num_qubits) const
{
    ELV_REQUIRE(static_cast<int>(mapping.size()) >= num_qubits_,
                "mapping too short");
    ELV_REQUIRE(!has_amplitude_embedding(),
                "cannot remap amplitude-embedding circuits");
    // Validate the mapping over the qubits the circuit actually uses.
    // Unused source qubits may carry -1 (compacted() marks dropped
    // qubits that way), but a used qubit must land on a unique target
    // inside the new register — an aliased or out-of-range target would
    // silently produce a different circuit.
    std::vector<int> target_owner(static_cast<std::size_t>(new_num_qubits),
                                  -1);
    for (int q : touched_qubits()) {
        const int target = mapping[static_cast<std::size_t>(q)];
        if (target < 0 || target >= new_num_qubits) {
            std::ostringstream oss;
            oss << "Circuit::remapped: qubit " << q << " maps to "
                << target << ", outside the target register [0, "
                << new_num_qubits << ")";
            elv::fatal(oss.str());
        }
        int &owner = target_owner[static_cast<std::size_t>(target)];
        if (owner >= 0) {
            std::ostringstream oss;
            oss << "Circuit::remapped: qubits " << owner << " and " << q
                << " both map to target " << target
                << "; aliasing would silently merge them";
            elv::fatal(oss.str());
        }
        owner = q;
    }
    Circuit out(new_num_qubits);
    out.ops_ = ops_;
    for (Op &op : out.ops_) {
        op.qubits[0] = mapping[static_cast<std::size_t>(op.qubits[0])];
        if (op.num_qubits() == 2)
            op.qubits[1] = mapping[static_cast<std::size_t>(op.qubits[1])];
    }
    out.num_params_ = num_params_;
    out.params_pinned_ = params_pinned_;
    out.measured_.reserve(measured_.size());
    for (int q : measured_)
        out.measured_.push_back(mapping[static_cast<std::size_t>(q)]);
    return out;
}

Circuit
Circuit::compacted(std::vector<int> &kept) const
{
    kept = touched_qubits();
    ELV_REQUIRE(!kept.empty(), "compacting an empty circuit");
    if (static_cast<int>(kept.size()) == num_qubits_)
        return *this; // already compact (identity relabeling)
    std::vector<int> inverse(static_cast<std::size_t>(num_qubits_), -1);
    for (std::size_t i = 0; i < kept.size(); ++i)
        inverse[static_cast<std::size_t>(kept[i])] = static_cast<int>(i);
    return remapped(inverse, static_cast<int>(kept.size()));
}

} // namespace elv::circ
