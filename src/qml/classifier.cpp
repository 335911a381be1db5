#include "qml/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "common/logging.hpp"
#include "common/validate.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace elv::qml {

namespace {

/**
 * Measured-qubit outcome distribution of `program` (compiled from a
 * compacted circuit measuring `measured`) on one sample; `psi` is
 * scratch sized to the program.
 */
std::vector<double>
measured_distribution(const sim::FusedProgram &program,
                      const std::vector<int> &measured,
                      const std::vector<double> &params,
                      const std::vector<double> &x, sim::StateVector &psi)
{
    program.run(psi, params, x);
    auto probs = psi.probabilities(measured);
    // Numerical guardrail at the DistributionFn boundary: NaN or lost
    // mass here silently corrupts every downstream loss.
    elv::validate_distribution(probs, elv::DistributionPolicy::Renormalize,
                               "statevector distribution");
    return probs;
}

/** Loss and accuracy over `data`, one outcome distribution per sample. */
template <typename OutcomeFn>
EvalResult
evaluate_outcomes(const Dataset &data, OutcomeFn &&outcome)
{
    ELV_REQUIRE(!data.samples.empty(), "empty evaluation set");
    EvalResult result;
    int correct = 0;
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
        const auto probs = class_probabilities_from(
            outcome(data.samples[i]), data.num_classes);
        result.loss += cross_entropy(probs, data.labels[i]);
        if (predict_class(probs) == data.labels[i])
            ++correct;
    }
    result.loss /= static_cast<double>(data.samples.size());
    result.accuracy = static_cast<double>(correct) /
                      static_cast<double>(data.samples.size());
    return result;
}

} // namespace

DistributionFn
statevector_distribution()
{
    return [](const circ::Circuit &circuit,
              const std::vector<double> &params,
              const std::vector<double> &x) {
        std::vector<int> kept;
        const circ::Circuit local = circuit.compacted(kept);
        sim::StateVector psi(local.num_qubits());
        return measured_distribution(sim::FusedProgram::compile(local),
                                     local.measured(), params, x, psi);
    };
}

DistributionFn
with_shot_noise(DistributionFn inner, int shots, std::uint64_t seed)
{
    ELV_REQUIRE(shots >= 1, "need at least one shot");
    // Shared generator: one provider instance samples a single stream.
    auto rng = std::make_shared<elv::Rng>(seed ^ 0x73686f74ULL);
    return [inner = std::move(inner), shots,
            rng](const circ::Circuit &circuit,
                 const std::vector<double> &params,
                 const std::vector<double> &x) {
        auto exact = inner(circuit, params, x);
        // Sampling from a NaN/unnormalized distribution would silently
        // bias every histogram; validate (and repair drift) first.
        elv::validate_distribution(exact,
                                   elv::DistributionPolicy::Renormalize,
                                   "shot-noise provider input");
        std::vector<double> histogram(exact.size(), 0.0);
        for (int s = 0; s < shots; ++s) {
            const std::size_t outcome =
                sim::StateVector::sample_from(exact, *rng);
            histogram[outcome] += 1.0 / shots;
        }
        return histogram;
    };
}

std::vector<double>
class_probabilities_from(const std::vector<double> &outcome_probs,
                         int num_classes)
{
    ELV_REQUIRE(num_classes >= 2, "need at least two classes");
    ELV_REQUIRE(outcome_probs.size() >=
                    static_cast<std::size_t>(num_classes),
                "not enough outcomes for the class count");
    std::vector<double> probs(static_cast<std::size_t>(num_classes), 0.0);
    for (std::size_t k = 0; k < outcome_probs.size(); ++k)
        probs[k % static_cast<std::size_t>(num_classes)] +=
            outcome_probs[k];
    // Outcome distributions can carry tiny negative float error.
    double total = 0.0;
    for (double &p : probs) {
        p = std::max(p, 0.0);
        total += p;
    }
    if (total > 0.0)
        for (double &p : probs)
            p /= total;
    return probs;
}

std::vector<double>
class_probabilities(const circ::Circuit &circuit,
                    const std::vector<double> &params,
                    const std::vector<double> &x, int num_classes)
{
    return class_probabilities_from(
        statevector_distribution()(circuit, params, x), num_classes);
}

int
predict_class(const std::vector<double> &class_probs)
{
    ELV_REQUIRE(!class_probs.empty(), "empty class probabilities");
    return static_cast<int>(std::max_element(class_probs.begin(),
                                             class_probs.end()) -
                            class_probs.begin());
}

double
cross_entropy(const std::vector<double> &class_probs, int label)
{
    ELV_REQUIRE(label >= 0 &&
                    label < static_cast<int>(class_probs.size()),
                "label out of range");
    const double p = std::max(
        class_probs[static_cast<std::size_t>(label)], 1e-10);
    return -std::log(p);
}

EvalResult
evaluate(const circ::Circuit &circuit, const std::vector<double> &params,
         const Dataset &data, const DistributionFn &dist_fn)
{
    return evaluate_outcomes(data, [&](const std::vector<double> &x) {
        return dist_fn(circuit, params, x);
    });
}

EvalResult
evaluate(const circ::Circuit &circuit, const std::vector<double> &params,
         const Dataset &data)
{
    // statevector_distribution() per sample, with the compaction and
    // the compile hoisted out of the loop.
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const sim::FusedProgram program = sim::FusedProgram::compile(local);
    sim::StateVector psi(local.num_qubits());
    return evaluate_outcomes(data, [&](const std::vector<double> &x) {
        return measured_distribution(program, local.measured(), params, x,
                                     psi);
    });
}

} // namespace elv::qml
