// Performability measures (section 3.5, Definition 3.4) as first-class API.
//
// Perf(<= r) = Pr{ Y(t) <= r } is exactly what the until engines compute
// when nothing is made absorbing and every state counts as a target
// (Theorem 4.3 with Psi = tt on the untransformed model), so both numerical
// methods are reusable verbatim. Expected-value measures come from
// uniformization occupation times:
//
//   E[Y(t)] = sum_s E[L_s(t)] * ( rho(s) + sum_s' R(s,s') iota(s,s') )
//
// (each unit of expected residence in s earns rho(s) directly and triggers
// transitions s -> s' at rate R(s,s'), each paying its impulse), and the
// long-run reward rate substitutes the steady-state distribution for the
// occupation-time profile. Both are computed for every start state at once:
// E[Y(t)] by one backward occupation series over the gain rates
// (numeric::occupation_backward), the long-run rate by one BSCC analysis
// weighing the gain rates (steady_state_expectation).
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::checker {

/// A performability value with the error bound of the engine that produced
/// it (uniformization truncation mass, or the derived O(d) discretization band) and
/// the rigorous interval containing the true value.
struct PerformabilityValue {
  double probability = 0.0;
  double error_bound = 0.0;
  ProbabilityBound bound = ProbabilityBound::point(0.0);
};

/// Perf(<= r) = Pr{ Y(t) <= r } from `start` over the utilization interval
/// [0, t]. Uses the method selected in `options` (uniformization by the
/// signature-class DP engine by default). Requires t, r finite and >= 0.
PerformabilityValue performability(const core::Mrm& model, core::StateIndex start, double t,
                                   double r, const CheckerOptions& options = {});

/// The distribution function r -> Pr{ Y(t) <= r } evaluated at each bound in
/// `reward_bounds` (one engine pass per entry; the uniformization passes
/// share one engine and its signature preprocessing, so prefer modest sweep
/// sizes).
std::vector<PerformabilityValue> performability_cdf(const core::Mrm& model,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const CheckerOptions& options = {});

/// E[Y(t)] for every start state: expected reward accumulated during [0, t],
/// including impulse rewards, from one backward occupation series. The
/// series loses at most epsilon * t of residence time, so each value
/// underestimates by at most epsilon * t * (largest gain rate).
std::vector<double> expected_accumulated_rewards(const core::Mrm& model, double t,
                                                 const numeric::TransientOptions& options = {});

/// E[Y(t)] from `start`: its entry of expected_accumulated_rewards.
double expected_accumulated_reward(const core::Mrm& model, core::StateIndex start, double t,
                                   const numeric::TransientOptions& options = {});

/// The long-run reward rate lim_{t->inf} E[Y(t)] / t for every starting
/// state (steady-state weighted gain rate; rates differ across states only
/// when the chain has multiple BSCCs), from one BSCC analysis.
std::vector<double> long_run_reward_rate(const core::Mrm& model,
                                         const linalg::IterativeOptions& solver = {});

/// Per-state gain rate rho(s) + sum_s' R(s,s') iota(s,s') — the expected
/// reward earned per unit of residence in s. Exposed so the checker can
/// bound the cumulative-reward error (lost occupation mass times the
/// largest gain rate).
std::vector<double> per_state_gain_rates(const core::Mrm& model);

}  // namespace csrlmrm::checker
