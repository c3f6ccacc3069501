// Shared configuration and error type for the model checker: the options of
// every engine it runs and the thread count they inherit.
#pragma once

#include <stdexcept>
#include <string>

#include "linalg/solver_types.hpp"
#include "numeric/discretization.hpp"
#include "numeric/signature_model.hpp"
#include "numeric/transient.hpp"

namespace csrlmrm::checker {

/// Numerical method used for time- and reward-bounded until formulas (P2).
enum class UntilMethod {
  /// Uniformization (section 4.6), evaluated by the signature-class DP
  /// engine (numeric/class_explorer.hpp) with its depth-first hand-off
  /// armed — the default, with w = 1e-8 like the tool described
  /// in the appendix. A query that is provably over the node budget before
  /// exploring anything runs discretization instead (see
  /// checker::choose_until_engine).
  kUniformization,
  /// Discretization (section 4.5). Requires (scalable-to-)integer state
  /// rewards and impulse rewards divisible by the step.
  kDiscretization,
};

/// What the checker does when the uniformization engine exhausts its node
/// budget (PathExplorerOptions::max_nodes): uniformization is only practical
/// for small Lambda*t, and a production checker must degrade gracefully
/// instead of dying mid-formula.
enum class BudgetPolicy {
  /// Propagate numeric::NodeBudgetError to the caller.
  kThrow,
  /// Re-evaluate the affected start states with the discretization engine
  /// at an adapted step (each recorded in the `uniformization.fallbacks`
  /// stats counter); the returned interval is the discretization one.
  kFallbackToDiscretization,
};

/// All knobs of the checker, with the defaults of the thesis's tool
/// (uniformization with truncation probability w = 1e-8).
struct CheckerOptions {
  UntilMethod until_method = UntilMethod::kUniformization;
  /// Degradation policy on node-budget exhaustion (see BudgetPolicy).
  BudgetPolicy on_budget_exhausted = BudgetPolicy::kFallbackToDiscretization;
  /// Options for the signature-class DP uniformization engine (w lives
  /// here).
  numeric::PathExplorerOptions uniformization;
  /// Options for the discretization engine (the step d lives here).
  numeric::DiscretizationOptions discretization;
  /// Linear solver controls (steady state, unbounded until).
  linalg::IterativeOptions solver;
  /// Backward transient-series controls (time-bounded until without reward
  /// bound, R[C]).
  numeric::TransientOptions transient;
  /// Worker threads for per-state fan-out (Until/Next/R-operator evaluation
  /// over all start states) and, through the engine options above, for the
  /// numeric kernels; 0 = the process default (CSRLMRM_THREADS or hardware
  /// concurrency). Engine-level `threads` fields that are 0 inherit this
  /// value, so setting it once configures the whole checker.
  unsigned threads = 0;
};

/// The engine options with an unset (0) `threads` field inheriting the
/// checker-level count; returns `options` with the inheritance applied.
CheckerOptions with_inherited_threads(CheckerOptions options);

/// Raised when a formula uses bounds outside the algorithms' scope (the
/// thesis supports time/reward intervals of the forms [0,b], [b,b] with
/// Psi => Phi, and [0,~]; see sections 4.5/4.6 and the appendix).
class UnsupportedFormulaError : public std::runtime_error {
 public:
  explicit UnsupportedFormulaError(const std::string& message)
      : std::runtime_error(message) {}
};

}  // namespace csrlmrm::checker
