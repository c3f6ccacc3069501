#include "checker/performability.hpp"

#include <stdexcept>

#include "checker/steady.hpp"
#include "numeric/discretization.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::checker {

std::vector<double> per_state_gain_rates(const core::Mrm& model) {
  std::vector<double> gain(model.num_states(), 0.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    gain[s] = model.state_reward(s);
    for (const auto& e : model.impulse_rewards().row(s)) {
      gain[s] += model.rates().rate(s, e.col) * e.value;
    }
  }
  return gain;
}

namespace {

/// Pr{ Y(t) <= r } is the P2 probability with Psi = everything and no dead
/// state: the signature-class DP on the untransformed model.
numeric::SignatureClassUntilEngine performability_engine(const core::Mrm& model) {
  return numeric::SignatureClassUntilEngine(model, std::vector<bool>(model.num_states(), true),
                                            std::vector<bool>(model.num_states(), false));
}

PerformabilityValue truncated_performability(const numeric::UntilUniformizationResult& result) {
  // Truncation only loses mass: the truth lies in [p, p + error].
  return {result.probability, result.error_bound,
          ProbabilityBound::from_point_error(result.probability, 0.0, result.error_bound)};
}

}  // namespace

PerformabilityValue performability(const core::Mrm& model, core::StateIndex start, double t,
                                   double r, const CheckerOptions& options) {
  obs::ScopedTimer timer("checker.performability");
  obs::counter_add("checker.performability.calls");
  if (options.until_method == UntilMethod::kUniformization) {
    return truncated_performability(
        performability_engine(model).compute(start, t, r, options.uniformization));
  }
  const std::vector<bool> everything(model.num_states(), true);
  const auto result = numeric::until_probability_discretization(model, everything, start, t, r,
                                                                options.discretization);
  return {result.probability, result.error_bound,
          ProbabilityBound::from_point_error(result.probability, result.error_bound,
                                             result.error_bound)};
}

std::vector<PerformabilityValue> performability_cdf(const core::Mrm& model,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const CheckerOptions& options) {
  std::vector<PerformabilityValue> values;
  values.reserve(reward_bounds.size());
  if (options.until_method == UntilMethod::kUniformization) {
    // Build the engine once; each bound re-sweeps the (truncated) frontier
    // but shares the uniformization preprocessing.
    const numeric::SignatureClassUntilEngine engine = performability_engine(model);
    for (const double r : reward_bounds) {
      values.push_back(truncated_performability(
          engine.compute(start, t, r, options.uniformization)));
    }
    return values;
  }
  for (const double r : reward_bounds) values.push_back(performability(model, start, t, r, options));
  return values;
}

std::vector<double> expected_accumulated_rewards(const core::Mrm& model, double t,
                                                 const numeric::TransientOptions& options) {
  obs::ScopedTimer timer("checker.expected_reward");
  obs::counter_add("checker.expected_reward.calls");
  return numeric::occupation_backward(model.rates(), per_state_gain_rates(model), t, options);
}

double expected_accumulated_reward(const core::Mrm& model, core::StateIndex start, double t,
                                   const numeric::TransientOptions& options) {
  if (start >= model.num_states()) {
    throw std::invalid_argument("expected_accumulated_reward: start state out of range");
  }
  return expected_accumulated_rewards(model, t, options)[start];
}

std::vector<double> long_run_reward_rate(const core::Mrm& model,
                                         const linalg::IterativeOptions& solver) {
  return steady_state_expectation(model, per_state_gain_rates(model), solver);
}

}  // namespace csrlmrm::checker
