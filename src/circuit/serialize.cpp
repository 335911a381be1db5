#include "circuit/serialize.hpp"

#include <charconv>
#include <map>
#include <ostream>
#include <sstream>

#include "common/logging.hpp"

namespace elv::circ {

namespace {

/** The whitespace-separated tokens of one line. */
std::vector<std::string>
split_tokens(const std::string &line)
{
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ls >> token)
        tokens.push_back(token);
    return tokens;
}

/** QASM gate name for a kind (lower case per the spec). */
std::string
qasm_name(GateKind kind)
{
    switch (kind) {
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::U3: return "u3";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::SWAP: return "swap";
      case GateKind::CRY: return "cry";
      case GateKind::AmpEmbed: break;
    }
    ELV_REQUIRE(false, "gate not expressible in QASM");
    return {};
}

} // namespace

std::string
to_qasm(const Circuit &circuit, const std::vector<double> &params,
        const std::vector<double> &x)
{
    if (circuit.has_amplitude_embedding())
        elv::fatal("amplitude embeddings cannot be exported to QASM");

    std::ostringstream oss;
    oss << "OPENQASM 2.0;\n";
    oss << "include \"qelib1.inc\";\n";
    oss << "qreg q[" << circuit.num_qubits() << "];\n";
    if (!circuit.measured().empty())
        oss << "creg c[" << circuit.measured().size() << "];\n";

    for (const Op &op : circuit.ops()) {
        oss << qasm_name(op.kind);
        const int np = op.num_params();
        if (np > 0) {
            const auto angles = op_angles(op, params, x);
            oss << "(";
            for (int s = 0; s < np; ++s)
                oss << (s ? "," : "") << angles[static_cast<std::size_t>(s)];
            oss << ")";
        }
        oss << " q[" << op.qubits[0] << "]";
        if (op.num_qubits() == 2)
            oss << ",q[" << op.qubits[1] << "]";
        oss << ";\n";
    }
    for (std::size_t b = 0; b < circuit.measured().size(); ++b)
        oss << "measure q[" << circuit.measured()[b] << "] -> c[" << b
            << "];\n";
    return oss.str();
}

std::string
to_text(const Circuit &circuit)
{
    std::ostringstream oss;
    oss << "elv-circuit 1\n";
    oss << "qubits " << circuit.num_qubits() << "\n";
    for (const Op &op : circuit.ops()) {
        switch (op.role) {
          case ParamRole::None:
            oss << "gate " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            break;
          case ParamRole::Variational:
            oss << "var " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            break;
          case ParamRole::Embedding:
            if (op.kind == GateKind::AmpEmbed) {
                oss << "ampembed";
                break;
            }
            oss << "embed " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            oss << " feat " << op.data_index;
            if (op.data_index2 >= 0)
                oss << "*" << op.data_index2;
            break;
        }
        oss << "\n";
    }
    oss << "measure";
    for (int q : circuit.measured())
        oss << " " << q;
    oss << "\n";
    return oss.str();
}

Circuit
from_text(const std::string &text)
{
    std::istringstream iss(text);
    std::string line;

    auto fail = [](const std::string &why) -> void {
        elv::fatal("malformed circuit text: " + why);
    };
    // Every number is a whole token: "2feat" or "29999x" is an error,
    // never a silently truncated 2 or 29999.
    auto number = [&fail, &line](const std::string &token) -> int {
        int value = 0;
        const char *end = token.data() + token.size();
        const auto [ptr, ec] = std::from_chars(token.data(), end, value);
        if (ec != std::errc() || ptr != end)
            fail("bad number '" + token + "': " + line);
        return value;
    };

    if (!std::getline(iss, line) || line != "elv-circuit 1")
        fail("missing 'elv-circuit 1' header");

    std::map<std::string, GateKind> kinds;
    for (GateKind kind :
         {GateKind::RX, GateKind::RY, GateKind::RZ, GateKind::U3,
          GateKind::H, GateKind::S, GateKind::Sdg, GateKind::X,
          GateKind::Y, GateKind::Z, GateKind::CX, GateKind::CZ,
          GateKind::SWAP, GateKind::CRY})
        kinds[gate_name(kind)] = kind;

    int num_qubits = 0;
    {
        if (!std::getline(iss, line))
            fail("missing 'qubits' line");
        const auto tokens = split_tokens(line);
        if (tokens.size() != 2 || tokens[0] != "qubits")
            fail("bad 'qubits' line: " + line);
        num_qubits = number(tokens[1]);
        if (num_qubits < 1)
            fail("bad 'qubits' line: " + line);
    }

    Circuit circuit(num_qubits);
    bool measured_seen = false;
    while (std::getline(iss, line)) {
        if (line.empty())
            continue;
        const auto tokens = split_tokens(line);
        const std::string keyword = tokens.empty() ? "" : tokens[0];

        if (keyword == "measure") {
            std::vector<int> measured;
            for (std::size_t i = 1; i < tokens.size(); ++i)
                measured.push_back(number(tokens[i]));
            circuit.set_measured(measured);
            measured_seen = true;
            continue;
        }
        if (keyword == "ampembed") {
            if (tokens.size() != 1)
                fail("trailing tokens: " + line);
            circuit.add_amplitude_embedding();
            continue;
        }

        const std::string name = tokens.size() > 1 ? tokens[1] : "";
        const auto it = kinds.find(name);
        if (it == kinds.end())
            fail("unknown gate '" + name + "'");
        const GateKind kind = it->second;

        const std::size_t arity =
            static_cast<std::size_t>(gate_num_qubits(kind));
        if (tokens.size() < 2 + arity)
            fail("missing qubit operand: " + line);
        std::vector<int> qubits(arity);
        for (std::size_t k = 0; k < arity; ++k)
            qubits[k] = number(tokens[2 + k]);
        const std::size_t rest = 2 + arity;

        if (keyword == "gate" || keyword == "var") {
            if (tokens.size() != rest)
                fail("trailing tokens: " + line);
            if (keyword == "gate")
                circuit.add_gate(kind, qubits);
            else
                circuit.add_variational(kind, qubits);
        } else if (keyword == "embed") {
            if (tokens.size() < rest + 2 || tokens[rest] != "feat")
                fail("embedding without 'feat': " + line);
            if (tokens.size() != rest + 2)
                fail("trailing tokens: " + line);
            const std::string &spec = tokens[rest + 1];
            const auto star = spec.find('*');
            const int feature = number(spec.substr(0, star));
            const int feature2 = star == std::string::npos
                                     ? -1
                                     : number(spec.substr(star + 1));
            circuit.add_embedding(kind, qubits, feature, feature2);
        } else {
            fail("unknown directive '" + keyword + "'");
        }
    }
    if (!measured_seen)
        fail("missing 'measure' line");
    return circuit;
}

std::string
to_text_line(const Circuit &circuit)
{
    const std::string text = to_text(circuit);
    std::string line;
    line.reserve(text.size() + 8);
    for (char c : text) {
        if (c == '\\')
            line += "\\\\";
        else if (c == '\n')
            line += "\\n";
        else
            line += c;
    }
    return line;
}

Circuit
from_text_line(const std::string &line)
{
    std::string text;
    text.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] != '\\') {
            text += line[i];
            continue;
        }
        if (i + 1 >= line.size())
            elv::fatal("malformed circuit line: trailing backslash");
        ++i;
        if (line[i] == '\\')
            text += '\\';
        else if (line[i] == 'n')
            text += '\n';
        else
            elv::fatal(std::string("malformed circuit line: bad escape "
                                   "'\\") +
                       line[i] + "'");
    }
    return from_text(text);
}

std::ostream &
operator<<(std::ostream &os, const Circuit &circuit)
{
    return os << to_text(circuit);
}

} // namespace elv::circ
