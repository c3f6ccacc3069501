// The plan executor: one forward walk over a compiled plan's ops. This is
// the checker's only evaluator of Algorithm 4.1: checker::ModelChecker runs
// one-root plans through it, mrmcheck --formulas and mrmcheckd whole
// batches.
//
// Every numeric op calls a checker/operator_eval.hpp function against the
// plan's model and options, and CSE never changes a bit of output:
// tests/test_plan_differential.cpp checks a CSE batch at 1/2/8 threads
// against one CSE-off plan per formula. What the plan buys is work shared
// across the batch:
//
//   - each deduplicated solve runs ONCE for every formula referencing it,
//     and serves both the printed probabilities and the verdicts from that
//     one run;
//   - absorbing transforms come from the caller's model-bound
//     core::TransformCache, so the until solves of a batch (and of every
//     batch the caller runs against the same cache) build each once;
//   - Poisson tables and Omega evaluators are built per solve: one costs
//     microseconds, less than a shared lookup's locking and bookkeeping.
//
// A formula fails alone. An op that throws — an until bound shape outside
// thesis sections 4.5/4.6, a point-time until whose Psi-states break
// Theorem 4.2's Psi => Phi, a Poisson window past 2^53, an exhausted node
// budget under BudgetPolicy::kThrow — records its exception, every op
// consuming it inherits that failure and is skipped, and each root reports
// its own in FormulaResult::error. The other roots are answered from the
// same walk, with the bits a plan of that formula alone gives. Only caller
// errors throw out of execute.
//
// Execution is serial over ops (each numeric op parallelizes internally over
// start states, at CheckerOptions::threads). The TransformCache locks
// internally, so concurrent executions sharing one cache (the mrmcheckd
// per-model resident cache) are safe; a single PlanResult is still built by
// one thread.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "checker/operator_eval.hpp"
#include "checker/until.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "plan/ir.hpp"

namespace csrlmrm::plan {

/// Per-formula results, sized to the model's states.
struct FormulaResult {
  /// The exception the formula's evaluation threw — the first failed op in
  /// the order a plan of this formula alone runs them — or null when it was
  /// answered. A failed result holds nothing else.
  std::exception_ptr error;

  std::vector<bool> sat;
  std::vector<bool> unknown;
  std::vector<checker::Verdict> verdicts;

  /// Widened per-state value enclosures of the root operator, when the root
  /// is an S/P/R node (what ModelChecker::value_bounds returns).
  bool has_bounds = false;
  std::vector<checker::ProbabilityBound> bounds;

  /// Raw path probabilities, when the root is a P node
  /// (what ModelChecker::path_probabilities returns).
  bool has_probabilities = false;
  std::vector<checker::UntilValue> probabilities;

  /// Raw numeric values, when the root is an S node (steady-state
  /// probabilities) or R node (expected rewards).
  bool has_values = false;
  std::vector<double> values;
};

struct PlanResult {
  /// One entry per plan root / input formula, in order.
  std::vector<FormulaResult> formulas;
};

/// Executes `plan` against `model` — the same model it was compiled for
/// (checked by state count) — drawing absorbing transforms from
/// `transforms`, which must be bound to `model`. Throws std::invalid_argument
/// for a state-count mismatch or a cache bound to another model; a failure
/// inside the plan lands in the failing formulas' FormulaResult::error.
PlanResult execute(const Plan& plan, const core::Mrm& model,
                   core::TransformCache& transforms);

/// The text a front end reports for a FormulaResult::error: the exception's
/// what(), or "unknown error" for one not derived from std::exception.
std::string failure_message(const std::exception_ptr& error);

}  // namespace csrlmrm::plan
