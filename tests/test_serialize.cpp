/**
 * @file
 * Serialization tests: native text round-trips every IR construct,
 * OpenQASM export carries bound angles and rejects amplitude
 * embeddings, malformed inputs produce usage errors, and the
 * expressibility metric behaves (entangling ansatze beat trivial ones,
 * cost accounting is exact).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "circuit/builders.hpp"
#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/expressibility.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;
using namespace elv::circ;

Circuit
sample_circuit()
{
    Circuit c(4);
    c.add_gate(GateKind::H, {0});
    c.add_embedding(GateKind::RX, {1}, 0);
    c.add_variational(GateKind::U3, {2});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_embedding(GateKind::RZ, {3}, 1, 2); // product embedding
    c.add_variational(GateKind::CRY, {2, 3});
    c.add_gate(GateKind::SWAP, {0, 3});
    c.set_measured({1, 3});
    return c;
}

TEST(TextFormat, RoundTripPreservesStructure)
{
    const Circuit original = sample_circuit();
    const Circuit restored = from_text(to_text(original));

    EXPECT_EQ(restored.num_qubits(), original.num_qubits());
    EXPECT_EQ(restored.num_params(), original.num_params());
    EXPECT_EQ(restored.measured(), original.measured());
    ASSERT_EQ(restored.ops().size(), original.ops().size());
    for (std::size_t i = 0; i < original.ops().size(); ++i) {
        EXPECT_EQ(restored.ops()[i].kind, original.ops()[i].kind);
        EXPECT_EQ(restored.ops()[i].role, original.ops()[i].role);
        EXPECT_EQ(restored.ops()[i].qubits, original.ops()[i].qubits);
        EXPECT_EQ(restored.ops()[i].data_index,
                  original.ops()[i].data_index);
        EXPECT_EQ(restored.ops()[i].data_index2,
                  original.ops()[i].data_index2);
    }
    // Idempotent: text of the restored circuit matches.
    EXPECT_EQ(to_text(restored), to_text(original));
}

TEST(TextFormat, RoundTripPreservesSemantics)
{
    Rng rng(5);
    const Circuit original = build_random_rxyz_cz(4, 3, 12, 2, rng);
    const Circuit restored = from_text(to_text(original));

    std::vector<double> params(12);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.3, -0.4, 0.9};

    sim::StateVector a(4), b(4);
    a.run(original, params, x);
    b.run(restored, params, x);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
}

TEST(TextFormat, AmplitudeEmbeddingRoundTrips)
{
    Circuit c(3);
    c.add_amplitude_embedding();
    c.add_variational(GateKind::RY, {0});
    c.set_measured({0});
    const Circuit restored = from_text(to_text(c));
    EXPECT_TRUE(restored.has_amplitude_embedding());
    EXPECT_EQ(restored.num_params(), 1);
}

TEST(TextFormat, StreamOperatorMatchesToText)
{
    const Circuit c = sample_circuit();
    std::ostringstream oss;
    oss << c;
    EXPECT_EQ(oss.str(), to_text(c));
}

TEST(TextFormat, RejectsMalformedInput)
{
    EXPECT_THROW(from_text(""), elv::UsageError);
    EXPECT_THROW(from_text("elv-circuit 2\nqubits 2\nmeasure 0\n"),
                 elv::UsageError);
    EXPECT_THROW(from_text("elv-circuit 1\nqubits 0\nmeasure 0\n"),
                 elv::UsageError);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 2\ngate BOGUS 0\nmeasure 0\n"),
        elv::UsageError);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 2\nembed RX 0\nmeasure 0\n"),
        elv::UsageError);
    // Missing measure line.
    EXPECT_THROW(from_text("elv-circuit 1\nqubits 2\ngate H 0\n"),
                 elv::UsageError);
    // Numbers are whole tokens and no line takes trailing tokens.
    const char *bad_lines[] = {
        "qubits 3x\nmeasure 0\n",
        "qubits 3\nmeasure 0 1x\n",
        "qubits 3\ngate CX 1 2feat\nmeasure 0\n",
        "qubits 3\nembed RZ 2 feat 29999x\nmeasure 0\n",
        "qubits 3 4\nmeasure 0\n",
        "qubits 3\ngate CX 1 2 feat\nmeasure 0\n",
        "qubits 3\nvar RY 0 1\nmeasure 0\n",
        "qubits 3\nembed RZ 2 feat 1 7\nmeasure 0\n",
    };
    for (const char *body : bad_lines)
        EXPECT_THROW(from_text(std::string("elv-circuit 1\n") + body),
                     elv::UsageError)
            << body;
}

TEST(Qasm, EmitsBoundAngles)
{
    Circuit c(2);
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_variational(GateKind::RY, {1});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({1});

    const std::string qasm = to_qasm(c, {1.5}, {0.25});
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("rx(0.25) q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("ry(1.5) q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[1] -> c[0];"), std::string::npos);
}

TEST(Qasm, RejectsAmplitudeEmbedding)
{
    Circuit c(2);
    c.add_amplitude_embedding();
    c.set_measured({0});
    EXPECT_THROW(to_qasm(c, {}, {1.0}), elv::UsageError);
}

TEST(Expressibility, EntanglingAnsatzBeatsTrivial)
{
    // A single-rotation ansatz covers almost none of state space; a
    // multi-layer entangling ansatz approaches the Haar distribution,
    // so its KL divergence must be clearly smaller.
    Circuit trivial(3);
    trivial.add_variational(GateKind::RZ, {0});
    trivial.set_measured({0});

    Circuit rich(3);
    for (int layer = 0; layer < 4; ++layer) {
        for (int q = 0; q < 3; ++q) {
            rich.add_variational(GateKind::RY, {q});
            rich.add_variational(GateKind::RZ, {q});
        }
        rich.add_gate(GateKind::CX, {0, 1});
        rich.add_gate(GateKind::CX, {1, 2});
    }
    rich.set_measured({0});

    Rng r1(7), r2(7);
    core::ExpressibilityOptions options;
    options.num_pairs = 128;
    const auto kl_trivial =
        core::expressibility(trivial, r1, options);
    const auto kl_rich = core::expressibility(rich, r2, options);
    EXPECT_GT(kl_trivial.kl_divergence, 2.0 * kl_rich.kl_divergence);
    EXPECT_EQ(kl_rich.circuit_executions, 256u);
}

TEST(Expressibility, DeterministicGivenSeed)
{
    Rng rng(9);
    const Circuit c = build_random_rxyz_cz(3, 2, 9, 1, rng);
    Rng r1(3), r2(3);
    EXPECT_DOUBLE_EQ(core::expressibility(c, r1).kl_divergence,
                     core::expressibility(c, r2).kl_divergence);
}

} // namespace
