#include "checker/operator_eval.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "checker/absorption.hpp"
#include "checker/next.hpp"
#include "checker/performability.hpp"
#include "checker/steady.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::checker {

namespace {

/// True iff any state is set.
bool any_state(const std::vector<bool>& mask) {
  return std::find(mask.begin(), mask.end(), true) != mask.end();
}

/// The optimistic operand set: UNKNOWN counts as satisfied.
std::vector<bool> optimistic_mask(const SatSets& operand) {
  std::vector<bool> mask(operand.sat);
  for (std::size_t s = 0; s < mask.size(); ++s) mask[s] = mask[s] || operand.unknown[s];
  return mask;
}

}  // namespace

SatSets kleene_not(const SatSets& operand) {
  const std::size_t n = operand.sat.size();
  SatSets result;
  result.sat.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    result.sat[s] = !operand.sat[s] && !operand.unknown[s];
  }
  result.unknown = operand.unknown;
  return result;
}

SatSets kleene_or(const SatSets& lhs, const SatSets& rhs) {
  const std::size_t n = lhs.sat.size();
  SatSets result;
  result.sat.assign(n, false);
  result.unknown.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    result.sat[s] = lhs.sat[s] || rhs.sat[s];
    result.unknown[s] = !result.sat[s] && (lhs.unknown[s] || rhs.unknown[s]);
  }
  return result;
}

SatSets kleene_and(const SatSets& lhs, const SatSets& rhs) {
  const std::size_t n = lhs.sat.size();
  SatSets result;
  result.sat.assign(n, false);
  result.unknown.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    result.sat[s] = lhs.sat[s] && rhs.sat[s];
    const bool lhs_false = !lhs.sat[s] && !lhs.unknown[s];
    const bool rhs_false = !rhs.sat[s] && !rhs.unknown[s];
    result.unknown[s] = !lhs_false && !rhs_false && (lhs.unknown[s] || rhs.unknown[s]);
  }
  return result;
}

SteadyEvaluation evaluate_steady_operator(const core::Mrm& model, const SatSets& operand,
                                          const CheckerOptions& options) {
  // The steady-state probability of a target set is monotone in the set
  // (a sum over more states), so the pessimistic/optimistic runs bracket
  // the truth for UNKNOWN operand states. The iterative solves themselves
  // converge to solver.tolerance (1e-12 default) and are treated as exact,
  // like in the thesis.
  SteadyEvaluation result;
  result.values = steady_state_probability_of_set(model, operand.sat, options.solver);
  result.bounds.resize(result.values.size());
  if (!any_state(operand.unknown)) {
    for (std::size_t s = 0; s < result.bounds.size(); ++s) {
      result.bounds[s] = ProbabilityBound::point(result.values[s]);
    }
    return result;
  }
  const auto upper_run =
      steady_state_probability_of_set(model, optimistic_mask(operand), options.solver);
  for (std::size_t s = 0; s < result.bounds.size(); ++s) {
    result.bounds[s] = ProbabilityBound{result.values[s], upper_run[s]};
  }
  return result;
}

NextEvaluation evaluate_next_operator(const core::Mrm& model, const SatSets& operand,
                                      const logic::Interval& time_bound,
                                      const logic::Interval& reward_bound,
                                      const CheckerOptions& options) {
  // Closed-form per transition (eq. 3.4): exact up to rounding, and monotone
  // in the operand set.
  NextEvaluation result;
  result.probabilities =
      next_probabilities(model, operand.sat, time_bound, reward_bound, options.threads);
  result.bounds.resize(result.probabilities.size());
  if (!any_state(operand.unknown)) {
    for (std::size_t s = 0; s < result.bounds.size(); ++s) {
      result.bounds[s] = ProbabilityBound::point(result.probabilities[s]);
    }
    return result;
  }
  const auto upper_run = next_probabilities(model, optimistic_mask(operand), time_bound,
                                            reward_bound, options.threads);
  for (std::size_t s = 0; s < result.bounds.size(); ++s) {
    result.bounds[s] = ProbabilityBound{result.probabilities[s], upper_run[s]};
  }
  return result;
}

UntilEvaluation evaluate_until_operator(const core::Mrm& model, const SatSets& lhs,
                                        const SatSets& rhs, const logic::Interval& time_bound,
                                        const logic::Interval& reward_bound,
                                        const CheckerOptions& options,
                                        core::TransformCache* transforms) {
  std::optional<core::TransformCache> own_transforms;
  if (transforms == nullptr) transforms = &own_transforms.emplace(model);
  UntilEvaluation result;
  result.values = until_probabilities(model, lhs.sat, rhs.sat, time_bound, reward_bound,
                                      options, transforms);
  result.bounds.resize(result.values.size());
  if (!any_state(lhs.unknown) && !any_state(rhs.unknown)) {
    for (std::size_t s = 0; s < result.bounds.size(); ++s) {
      result.bounds[s] = result.values[s].bound;
    }
    return result;
  }
  // The until probability is monotone nondecreasing in both operand sets
  // (every satisfying path stays satisfying when Sat(Phi) or Sat(Psi)
  // grows), so the pessimistic run's lower end and the optimistic run's
  // upper end enclose the truth.
  SatSets lhs_opt;
  lhs_opt.sat = optimistic_mask(lhs);
  SatSets rhs_opt;
  rhs_opt.sat = optimistic_mask(rhs);
  const auto upper_run = until_probabilities(model, lhs_opt.sat, rhs_opt.sat, time_bound,
                                             reward_bound, options, transforms);
  for (std::size_t s = 0; s < result.bounds.size(); ++s) {
    result.bounds[s] =
        ProbabilityBound{result.values[s].bound.lower, upper_run[s].bound.upper};
  }
  return result;
}

RewardEvaluation evaluate_reward_operator(const core::Mrm& model,
                                          const logic::ExpectedRewardFormula& node,
                                          const SatSets* operand,
                                          const CheckerOptions& options) {
  const std::size_t n = model.num_states();
  RewardEvaluation result;
  result.bounds.resize(n);
  switch (node.query) {
    case logic::RewardQuery::kCumulative: {
      // The occupation-time series truncates the Poisson sum, losing at most
      // epsilon * t of residence mass; each lost unit earns at most the
      // largest gain rate, so the truth lies in [v, v + eps * t * max gain].
      result.values = expected_accumulated_rewards(
          model, node.time_horizon, with_inherited_threads(options).transient);
      const auto gain = per_state_gain_rates(model);
      const double max_gain = gain.empty() ? 0.0 : *std::max_element(gain.begin(), gain.end());
      const double slack = options.transient.epsilon * node.time_horizon * max_gain;
      for (std::size_t s = 0; s < n; ++s) {
        result.bounds[s] = ProbabilityBound{result.values[s], result.values[s] + slack};
      }
      return result;
    }
    case logic::RewardQuery::kReachability: {
      if (operand == nullptr) {
        throw std::invalid_argument("evaluate_reward_operator: reachability needs operand sets");
      }
      // Antitone in the target set: reaching a *larger* set takes less time
      // and therefore less reward, so the optimistic run gives the lower
      // values and the pessimistic run the upper ones.
      result.values = expected_reward_to_hit(model, operand->sat, options.solver);
      if (!any_state(operand->unknown)) {
        for (std::size_t s = 0; s < n; ++s) {
          result.bounds[s] = ProbabilityBound::point(result.values[s]);
        }
        return result;
      }
      const auto optimistic_run =
          expected_reward_to_hit(model, optimistic_mask(*operand), options.solver);
      for (std::size_t s = 0; s < n; ++s) {
        result.bounds[s] = ProbabilityBound{optimistic_run[s], result.values[s]};
      }
      return result;
    }
    case logic::RewardQuery::kLongRun: {
      result.values = long_run_reward_rate(model, options.solver);
      for (std::size_t s = 0; s < n; ++s) {
        result.bounds[s] = ProbabilityBound::point(result.values[s]);
      }
      return result;
    }
  }
  throw std::logic_error("evaluate_reward_operator: unknown reward query");
}

SatSets compare_operator_bounds(const std::vector<ProbabilityBound>& bounds,
                                logic::Comparison op, double threshold) {
  const std::size_t n = bounds.size();
  SatSets result;
  result.sat.assign(n, false);
  result.unknown.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    switch (compare_bound(bounds[s], op, threshold)) {
      case Verdict::kSat:
        result.sat[s] = true;
        break;
      case Verdict::kUnknown:
        result.unknown[s] = true;
        obs::counter_add("checker.verdicts.unknown");
        break;
      case Verdict::kUnsat:
        break;
    }
  }
  return result;
}

}  // namespace csrlmrm::checker
