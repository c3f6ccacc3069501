// The per-operator evaluation core behind the plan executor
// (plan/executor.hpp), the checker's one evaluator.
//
// Every CSRL operator evaluation — the Kleene three-valued boolean
// connectives, the widened two-mask runs of the numeric operators (S, P, R),
// and the three-valued threshold comparison — lives here as a free function
// of (model, operand sets, options). Each plan op calls exactly one of these
// functions, so the plan's CSE pass only decides how often they run, never
// what they compute.
//
// The numeric operator evaluations return the pessimistic-run raw values
// next to the widened per-state enclosures. The two are computed in one
// engine run (the raw values ARE the lower run), which is what lets one
// solve serve both the printed probabilities and the verdicts.
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"

namespace csrlmrm::checker {

/// Three-valued satisfaction masks of one formula over one model's states:
/// sat[s] = provably true, unknown[s] = undecidable at the configured
/// accuracy; both false = provably false.
struct SatSets {
  std::vector<bool> sat;
  std::vector<bool> unknown;
};

// --- Kleene strong three-valued boolean connectives -----------------------

/// !T = F, !F = T, !U = U.
SatSets kleene_not(const SatSets& operand);

/// T || x = T, F || U = U.
SatSets kleene_or(const SatSets& lhs, const SatSets& rhs);

/// F && x = F, T && U = U.
SatSets kleene_and(const SatSets& lhs, const SatSets& rhs);

// --- Numeric operator evaluations (pessimistic values + widened bounds) ---

/// S-operator core: steady-state probability of the operand set per start
/// state, with the enclosure widened over operand UNKNOWN states (second
/// optimistic-mask solve only when one exists).
struct SteadyEvaluation {
  std::vector<double> values;             // pessimistic run
  std::vector<ProbabilityBound> bounds;   // widened enclosure
};
SteadyEvaluation evaluate_steady_operator(const core::Mrm& model, const SatSets& operand,
                                          const CheckerOptions& options);

/// X-operator core (closed-form per transition, eq. 3.4).
struct NextEvaluation {
  std::vector<double> probabilities;
  std::vector<ProbabilityBound> bounds;
};
NextEvaluation evaluate_next_operator(const core::Mrm& model, const SatSets& operand,
                                      const logic::Interval& time_bound,
                                      const logic::Interval& reward_bound,
                                      const CheckerOptions& options);

/// U-operator core: until_probabilities on the pessimistic operand masks
/// (these are the raw values the CLI prints), plus the optimistic-mask run
/// when an operand has UNKNOWN states. Both runs draw their absorbing
/// transforms from `transforms` (bound to `model`), or from one cache of
/// their own when it is null.
struct UntilEvaluation {
  std::vector<UntilValue> values;
  std::vector<ProbabilityBound> bounds;
};
UntilEvaluation evaluate_until_operator(const core::Mrm& model, const SatSets& lhs,
                                        const SatSets& rhs, const logic::Interval& time_bound,
                                        const logic::Interval& reward_bound,
                                        const CheckerOptions& options,
                                        core::TransformCache* transforms = nullptr);

/// R-operator core. `operand` carries the F-target sets for kReachability
/// and may be null for the operand-free queries (kCumulative, kLongRun).
struct RewardEvaluation {
  std::vector<double> values;
  std::vector<ProbabilityBound> bounds;
};
RewardEvaluation evaluate_reward_operator(const core::Mrm& model,
                                          const logic::ExpectedRewardFormula& node,
                                          const SatSets* operand,
                                          const CheckerOptions& options);

// --- Threshold comparison -------------------------------------------------

/// Three-valued comparison of widened per-state enclosures against an
/// operator's threshold: SAT when the whole interval passes, UNSAT when none
/// of it does, UNKNOWN when it straddles the bound (counted into
/// "checker.verdicts.unknown").
SatSets compare_operator_bounds(const std::vector<ProbabilityBound>& bounds,
                                logic::Comparison op, double threshold);

}  // namespace csrlmrm::checker
