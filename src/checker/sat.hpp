// The model-checking front end: SatisfyStateFormula (Algorithm 4.1),
// error-aware.
//
// A ModelChecker evaluates CSRL state formulas bottom-up over one MRM with a
// *three-valued* satisfaction result: each state is SAT, UNSAT, or UNKNOWN.
// Numeric operators (S, P, R) produce a rigorous value interval per state
// (see checker/verdict.hpp for the error sources) and compare it against
// their threshold three-valued; the boolean connectives propagate UNKNOWN by
// Kleene's strong three-valued logic (T || U = T, F && U = F, otherwise U).
// When a sub-formula is UNKNOWN at some states, the numeric operator above
// it is evaluated twice — once with the pessimistic operand set (UNKNOWN
// counts as false) and once with the optimistic one (UNKNOWN counts as
// true); since every operator's value is monotone in its operand sets, the
// hull of the two runs encloses the truth.
//
// The plan pipeline realizes this: the first query about a formula compiles
// it into a one-root plan (plan/compiler.hpp), whose topologically ordered
// ops are the bottom-up recursion, and executes it (plan/executor.hpp). The
// plan's FormulaResult is memoized per root node, so every accessor below
// on the same node — verdicts, value intervals and the raw numeric values —
// is served by one execution. Every execution draws its absorbing
// transforms from the checker's one TransformCache, so formulas that share
// a transformed model build it once.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"
#include "plan/executor.hpp"

namespace csrlmrm::checker {

/// CSRL model checker over one MRM. The model must outlive the checker.
class ModelChecker {
 public:
  explicit ModelChecker(const core::Mrm& model, CheckerOptions options = {});

  /// The executed one-root plan of `formula`, memoized per formula node
  /// identity: every accessor below reads it. Its `unknown` set holds the
  /// states where the configured accuracy (truncation probability w,
  /// transient epsilon, discretization step d) cannot decide the formula,
  /// and `values` the raw steady-state probabilities or expected rewards
  /// behind an S or R root. Throws std::invalid_argument for a null
  /// formula, and rethrows the plan's recorded failure (kept out of the
  /// memo).
  const plan::FormulaResult& result(const logic::FormulaPtr& formula);

  /// Sat(Phi): the states *provably* satisfying the formula (Algorithm 4.1).
  /// UNKNOWN states are not included — check verdicts when the distinction
  /// matters.
  const std::vector<bool>& satisfaction_set(const logic::FormulaPtr& formula);

  /// Per-state three-valued verdicts: SAT, UNSAT or UNKNOWN.
  std::vector<Verdict> verdicts(const logic::FormulaPtr& formula);

  /// Convenience: does one state provably satisfy the formula?
  bool satisfies(core::StateIndex state, const logic::FormulaPtr& formula);

  /// The per-state probabilities behind a P-operator node (next or until),
  /// i.e. P(s, phi) before comparison with the bound, with each value's
  /// rigorous interval. Computed against the provable operand Sat sets
  /// (operand UNKNOWN states count as false); verdicts() and value_bounds()
  /// widen for operand uncertainty, these raw values do not.
  std::vector<UntilValue> path_probabilities(const logic::FormulaPtr& formula);

  /// The per-state value intervals behind the outermost S/P/R operator node,
  /// *including* the widening for UNKNOWN operand states. These are the
  /// intervals the three-valued verdicts compare against the threshold.
  /// Throws std::invalid_argument for non-operator nodes.
  std::vector<ProbabilityBound> value_bounds(const logic::FormulaPtr& formula);

  const core::Mrm& model() const { return *model_; }
  const CheckerOptions& options() const { return options_; }

 private:
  /// One memo entry. `formula` owns the node the entry is keyed by, so the
  /// key stays valid even if the caller drops its FormulaPtr.
  struct Entry {
    logic::FormulaPtr formula;
    plan::FormulaResult result;
  };

  const core::Mrm* model_;
  CheckerOptions options_;
  std::unique_ptr<core::TransformCache> transforms_;  // bound to *model_
  std::unordered_map<const logic::Formula*, Entry> results_;
};

}  // namespace csrlmrm::checker
