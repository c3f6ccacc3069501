#include "checker/until.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "checker/absorption.hpp"
#include "core/transform.hpp"
#include "graph/reachability.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/discretization.hpp"
#include "numeric/poisson.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "core/approx.hpp"

namespace csrlmrm::checker {

namespace {

void require_masks(const core::Mrm& model, const std::vector<bool>& sat_phi,
                   const std::vector<bool>& sat_psi) {
  if (sat_phi.size() != model.num_states() || sat_psi.size() != model.num_states()) {
    throw std::invalid_argument("until: satisfaction mask size mismatch");
  }
}

/// The !Phi && !Psi states: absorbed by Theorem 4.2, exactly 0 for the P2
/// engines.
std::vector<bool> dead_states(const std::vector<bool>& sat_phi,
                              const std::vector<bool>& sat_psi) {
  std::vector<bool> dead(sat_phi.size(), false);
  for (std::size_t s = 0; s < dead.size(); ++s) dead[s] = !sat_phi[s] && !sat_psi[s];
  return dead;
}

/// Reward bounds must be trivial or of the form [0,r] with r finite.
bool supported_reward_bound(const logic::Interval& reward) {
  return reward.is_trivial() ||
         (core::exactly_zero(reward.lower()) && !reward.is_upper_unbounded());
}

}  // namespace

const char* to_string(UntilClass cls) {
  switch (cls) {
    case UntilClass::kUnbounded:
      return "P0:unbounded";
    case UntilClass::kTimeBounded:
      return "P1:time-bounded";
    case UntilClass::kTwoPhase:
      return "P1':two-phase";
    case UntilClass::kTimeReward:
      return "P2:time-reward";
    case UntilClass::kPointTimeReward:
      return "P2:point-time-reward";
    case UntilClass::kUnsupported:
      return "unsupported";
  }
  return "?";
}

UntilClass classify_until(const logic::Interval& time_bound,
                          const logic::Interval& reward_bound) {
  if (!supported_reward_bound(reward_bound)) return UntilClass::kUnsupported;
  const bool time_trivial = time_bound.is_trivial();
  const bool reward_trivial = reward_bound.is_trivial();
  if (time_trivial && reward_trivial) return UntilClass::kUnbounded;
  if (reward_trivial && time_bound.lower() > 0.0 && !time_bound.is_upper_unbounded()) {
    return UntilClass::kTwoPhase;
  }
  // The remaining classes need a bounded time interval [0,t] or [t,t].
  const bool time_zero_based =
      core::exactly_zero(time_bound.lower()) && !time_bound.is_upper_unbounded();
  const bool time_point = time_bound.is_point() && !time_bound.is_upper_unbounded();
  if (!time_zero_based && !time_point) return UntilClass::kUnsupported;
  // Reward-trivial [t1,t2] and [t,t] with t > 0 are two-phase, so [0,t] here.
  if (reward_trivial) return UntilClass::kTimeBounded;
  if (time_point && time_bound.lower() > 0.0) return UntilClass::kPointTimeReward;
  return UntilClass::kTimeReward;
}

std::vector<double> unbounded_until_probabilities(const core::Mrm& model,
                                                  const std::vector<bool>& sat_phi,
                                                  const std::vector<bool>& sat_psi,
                                                  const linalg::IterativeOptions& solver) {
  obs::ScopedTimer timer("checker.until.unbounded");
  obs::counter_add("checker.until.unbounded.calls");
  require_masks(model, sat_phi, sat_psi);
  const std::size_t n = model.num_states();

  // Graph precomputation: P > 0 exactly for states that can reach a Psi-state
  // through Phi-states. Everything else is pinned to 0 (this also realizes
  // the "least solution" requirement of eq. 3.8: zero wherever possible).
  const std::vector<bool> positive =
      graph::backward_reachable_via(model.rates().matrix(), sat_phi, sat_psi);

  // The unknowns are the Phi && !Psi states with positive probability; their
  // successors outside the unknowns are Psi-states (x = 1) or pinned zeros.
  std::vector<double> result(n, 0.0);
  std::vector<bool> unknown(n, false);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (sat_psi[s]) result[s] = 1.0;
    unknown[s] = !sat_psi[s] && sat_phi[s] && positive[s];
  }
  first_step_solve(model, unknown, {}, /*with_impulses=*/false, result, solver);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (unknown[s]) result[s] = std::min(1.0, std::max(0.0, result[s]));
  }
  return result;
}

UntilMethod choose_until_engine(const core::Mrm& transformed, double t,
                                const CheckerOptions& options) {
  const std::size_t n = transformed.num_states();
  std::size_t live = 0;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (transformed.rates().exit_rate(s) > 0.0) ++live;
  }
  const double mean = transformed.rates().max_exit_rate() * t;
  // Pr{N > levels} <= w: the engine never looks past this epoch, and even a
  // perfectly merging frontier processes at least one class per live state
  // per level, so live * levels lower-bounds the engine's node count.
  const std::size_t levels =
      mean > 0.0 ? numeric::poisson_truncation_point(
                       mean, options.uniformization.truncation_probability)
                 : 0;
  // Uniformization provably over budget before exploring anything, and
  // without impulse rewards a valid discretization step always exists — skip
  // straight to the engine the budget fallback would end up in. (Under
  // kThrow every degradation is disabled, so the checker must not switch
  // methods behind the user's back either: run uniformization and fail
  // loudly.)
  if (options.on_budget_exhausted != BudgetPolicy::kThrow &&
      !transformed.has_impulse_rewards() &&
      static_cast<double>(live) * static_cast<double>(levels) >
          static_cast<double>(options.uniformization.max_nodes)) {
    return UntilMethod::kDiscretization;
  }
  return UntilMethod::kUniformization;
}

namespace {

/// Discretization options usable as an automatic *fallback* for a query the
/// uniformization engine abandoned or was never given: the configured step is
/// adapted so it satisfies d * E_max < 1 and divides t (explicit
/// discretization runs keep the user's step untouched and fail loudly
/// instead).
numeric::DiscretizationOptions adapted_discretization_options(
    const core::Mrm& transformed, double t, numeric::DiscretizationOptions base) {
  const double max_exit = transformed.rates().max_exit_rate();
  double target = base.step;
  if (max_exit > 0.0 && target * max_exit >= 1.0) target = 0.5 / max_exit;
  const double steps = std::ceil(t / target - 1e-9);
  if (steps >= 1.0) base.step = t / steps;
  return base;
}

/// The discretization engine from every state in `starts`, written into
/// `values`. Every start is an independent query on the one shared
/// transformed MRM, so the starts fan out over the thread pool.
void discretize_starts(const core::Mrm& transformed, const std::vector<bool>& sat_psi,
                       const std::vector<core::StateIndex>& starts, double t, double r,
                       const numeric::DiscretizationOptions& discretization, unsigned threads,
                       std::vector<UntilValue>& values) {
  parallel::parallel_for(starts.size(), threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto result = numeric::until_probability_discretization(
          transformed, sat_psi, starts[i], t, r, discretization);
      values[starts[i]] = two_sided_until_value(result.probability, result.error_bound);
    }
  });
}

/// Shared P2 evaluation: Pr{ Y(t) <= r, X(t) |= Psi } on `transformed` for
/// every state, by the configured method. `dead` marks !Phi && !Psi states.
/// When `psi_absorbed` is set (the [0,t] reduction, where Psi-states were
/// made absorbing with zero rewards), Psi starting states score exactly 1 —
/// case 1 of eq. (3.6) — without burning engine time on them.
std::vector<UntilValue> bounded_time_reward(const core::Mrm& transformed,
                                            const std::vector<bool>& sat_psi,
                                            const std::vector<bool>& dead, double t, double r,
                                            const CheckerOptions& caller_options,
                                            bool psi_absorbed) {
  CheckerOptions options = caller_options;
  if (options.until_method == UntilMethod::kUniformization) {
    options.until_method = choose_until_engine(transformed, t, options);
    if (options.until_method == UntilMethod::kDiscretization) {
      // The chooser adapts the step like the budget-exhaustion fallback
      // does; only an *explicit* d=step run keeps the user's step untouched.
      options.discretization =
          adapted_discretization_options(transformed, t, options.discretization);
      obs::counter_add("engine.auto_choice.discretization");
    } else {
      obs::counter_add("engine.auto_choice.classdp");
    }
  }
  const bool uniformization = options.until_method == UntilMethod::kUniformization;
  obs::ScopedTimer timer(uniformization ? "checker.until.bounded.uniformization"
                                        : "checker.until.bounded.discretization");
  const std::size_t n = transformed.num_states();
  std::vector<UntilValue> values(n);
  // Trivial starts are scored directly: absorbed Psi-states exactly 1 (case 1
  // of eq. 3.6) and, for uniformization, dead states exactly 0. The rest are
  // the engine's starts.
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (psi_absorbed && sat_psi[s]) {
      values[s] = exact_until_value(1.0);
    } else if (uniformization && dead[s]) {
      values[s] = truncated_until_value(0.0, 0.0);
    } else {
      starts.push_back(s);
    }
  }
  if (starts.empty()) return values;
  const unsigned threads = parallel::resolve_thread_count(options.threads);
  if (!uniformization) {
    discretize_starts(transformed, sat_psi, starts, t, r, options.discretization, threads,
                      values);
    return values;
  }
  // Signature-class DP: every start rides one batched frontier sweep (one
  // engine run, one conditional-probability evaluation per signature class
  // for the whole fan-out).
  const numeric::SignatureClassUntilEngine engine(transformed, sat_psi, dead);
  try {
    const auto batch = engine.compute_batch(starts, t, r, options.uniformization);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      values[starts[i]] = truncated_until_value(batch[i].probability, batch[i].error_bound);
    }
    return values;
  } catch (const numeric::NodeBudgetError& budget_error) {
    if (options.on_budget_exhausted == BudgetPolicy::kThrow) throw;
    try {
      discretize_starts(transformed, sat_psi, starts, t, r,
                        adapted_discretization_options(transformed, t, options.discretization),
                        threads, values);
    } catch (const std::invalid_argument& fallback_error) {
      // The degradation path is itself infeasible (e.g. impulse rewards not
      // commensurable with any reasonable step). Re-raise the budget error
      // with both diagnoses so the user can pick a remedy.
      throw numeric::NodeBudgetError(std::string(budget_error.what()) +
                                     "; fallback to discretization also failed: " +
                                     fallback_error.what() +
                                     " (raise max_nodes, widen w, or adjust rewards)");
    }
    obs::counter_add("uniformization.fallbacks", starts.size());
    return values;
  }
}

}  // namespace

std::vector<UntilValue> until_probabilities(const core::Mrm& model,
                                            const std::vector<bool>& sat_phi,
                                            const std::vector<bool>& sat_psi,
                                            const logic::Interval& time_bound,
                                            const logic::Interval& reward_bound,
                                            const CheckerOptions& caller_options,
                                            core::TransformCache* transforms) {
  obs::ScopedTimer timer("checker.until");
  obs::counter_add("checker.until.calls");
  require_masks(model, sat_phi, sat_psi);
  std::optional<core::TransformCache> own_transforms;
  if (transforms == nullptr) {
    transforms = &own_transforms.emplace(model);
  } else if (&transforms->model() != &model) {
    throw std::invalid_argument("until: the transform cache serves a different model");
  }
  const std::size_t n = model.num_states();
  // Engine-level thread counts left at 0 inherit the checker-level knob.
  const CheckerOptions options = with_inherited_threads(caller_options);

  switch (classify_until(time_bound, reward_bound)) {
    case UntilClass::kUnsupported:
      if (!supported_reward_bound(reward_bound)) {
        throw UnsupportedFormulaError(
            "until: reward bounds must have the form [0,r] (thesis section 4.6: general "
            "reward intervals are future work)");
      }
      throw UnsupportedFormulaError(
          "until: time bounds must have the form [0,t], [t1,t2] (reward-unbounded), or [t,t] "
          "(thesis sections 4.3.2/4.6 and [Bai03])");

    case UntilClass::kUnbounded: {
      // P0: Phi U Psi. Graph precomputation pins exact zeros/ones; the linear
      // solve converges to solver.tolerance (treated as exact, like the thesis).
      const auto probabilities =
          unbounded_until_probabilities(model, sat_phi, sat_psi, options.solver);
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) values[s] = exact_until_value(probabilities[s]);
      return values;
    }

    case UntilClass::kTwoPhase: {
      // P1': general time interval [t1,t2] with t1 > 0 and no reward bound —
      // the two-phase reduction of [Bai03]: run the chain in M[!Phi] until t1
      // (any visit to a !Phi state is fatal; Psi-states without Phi are
      // absorbed there as well, and they contribute nothing because the
      // witness time cannot lie before t1), then solve the residual
      // Phi U^[0,t2-t1] Psi problem from every Phi-state reached.
      const double t1 = time_bound.lower();
      const double t2 = time_bound.upper();

      std::vector<bool> not_phi(n, false);
      for (core::StateIndex s = 0; s < n; ++s) not_phi[s] = !sat_phi[s];
      const auto phase_one_ptr = transforms->absorbing(not_phi);
      const core::Mrm& phase_one = *phase_one_ptr;

      const auto residual = until_probabilities(model, sat_phi, sat_psi,
                                                logic::Interval(0.0, t2 - t1),
                                                logic::Interval{}, options, transforms);

      // Phase one runs backward: for a field f of the residual values, one
      // series over M[!Phi] gives sum_mid Pr{X(t1) = mid | X(0) = s} f(mid)
      // for every start s at once, where a !Phi-state reached before t1 is
      // absorbed and contributes nothing.
      const auto phase_one_series = [&](auto field) {
        std::vector<double> u0(n, 0.0);
        for (core::StateIndex mid = 0; mid < n; ++mid) {
          if (sat_phi[mid]) u0[mid] = field(residual[mid]);
        }
        return numeric::transient_backward(phase_one.rates(), std::move(u0), t1,
                                           options.transient);
      };
      const auto probability =
          phase_one_series([](const UntilValue& v) { return v.probability; });
      const auto error = phase_one_series([](const UntilValue& v) { return v.error_bound; });
      const auto lower = phase_one_series([](const UntilValue& v) { return v.bound.lower; });
      const auto upper = phase_one_series([](const UntilValue& v) { return v.bound.upper; });

      // Interval arithmetic over the convex combination: the phase-one weights
      // underestimate by at most epsilon of total mass (truncation only loses
      // terms), each residual contributes its own enclosure, and mass
      // rounding and a steady-state fold move each series by at most its
      // rounding_error + steady_error, so
      // [P lo - moved, P hi + epsilon + moved] contains the truth.
      const double epsilon = options.transient.epsilon;
      const auto moved = [](const numeric::TransientResult& series) {
        return series.rounding_error + series.steady_error;
      };
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) {
        if (!sat_phi[s]) continue;
        values[s] = {std::clamp(probability.values[s], 0.0, 1.0),
                     epsilon + error.values[s] + moved(error) + moved(probability),
                     ProbabilityBound{std::max(0.0, lower.values[s] - moved(lower)),
                                      std::min(1.0, upper.values[s] + epsilon + moved(upper))}};
      }
      return values;
    }

    case UntilClass::kTimeBounded: {
      // P1: Phi U^[0,t] Psi = transient analysis of M[!Phi v Psi] (Thm 4.1).
      std::vector<bool> absorb(n, false);
      for (core::StateIndex s = 0; s < n; ++s) absorb[s] = !sat_phi[s] || sat_psi[s];
      const auto transformed_ptr = transforms->absorbing(absorb);
      const core::Mrm& transformed = *transformed_ptr;
      // One backward column series u_{k+1} = P u_k from the Psi indicator
      // answers every start state at once: Psi is absorbing in M[!Phi v Psi],
      // so the probability of sitting in Psi at t is the until probability.
      std::vector<double> psi_indicator(n, 0.0);
      for (core::StateIndex s = 0; s < n; ++s) {
        if (sat_psi[s]) psi_indicator[s] = 1.0;
      }
      const auto hit = numeric::transient_backward(
          transformed.rates(), std::move(psi_indicator), time_bound.upper(), options.transient);
      const double lost = options.transient.epsilon;                // one-sided
      const double moved = hit.rounding_error + hit.steady_error;  // two-sided
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) {
        if (sat_psi[s]) {
          values[s] = exact_until_value(1.0);  // absorbed Psi start: case 1 of eq. (3.6)
          continue;
        }
        // The truth lies in [p - moved, p + lost + moved]; rounding may put
        // p itself past 1, which the truth never is.
        const double p = std::clamp(hit.values[s], 0.0, 1.0);
        values[s] = {p, lost + moved, ProbabilityBound::from_point_error(p, moved, lost + moved)};
      }
      return values;
    }

    case UntilClass::kPointTimeReward: {
      // [t,t] + [0,r]: Theorem 4.2 requires Psi => Phi; only !Phi && !Psi
      // states become absorbing, Psi-states stay live.
      for (core::StateIndex s = 0; s < n; ++s) {
        if (sat_psi[s] && !sat_phi[s]) {
          throw UnsupportedFormulaError(
              "until with point time interval [t,t] requires Psi => Phi (Theorem 4.2)");
        }
      }
      const std::vector<bool> dead = dead_states(sat_phi, sat_psi);
      const auto transformed_ptr = transforms->absorbing(dead);
      return bounded_time_reward(*transformed_ptr, sat_psi, dead, time_bound.upper(),
                                 reward_bound.upper(), options, /*psi_absorbed=*/false);
    }

    case UntilClass::kTimeReward: {
      // P2: Phi U^[0,t]_[0,r] Psi on M[!Phi v Psi] (Theorems 4.1 + 4.3).
      std::vector<bool> absorb(n, false);
      for (core::StateIndex s = 0; s < n; ++s) absorb[s] = !sat_phi[s] || sat_psi[s];
      const auto transformed_ptr = transforms->absorbing(absorb);
      return bounded_time_reward(*transformed_ptr, sat_psi, dead_states(sat_phi, sat_psi),
                                 time_bound.upper(), reward_bound.upper(), options,
                                 /*psi_absorbed=*/true);
    }
  }
  throw std::logic_error("until: unknown until class");
}

}  // namespace csrlmrm::checker
