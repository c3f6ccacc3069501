// ModelChecker reads the tests make and no product does: the UNKNOWN set
// and the raw steady-state or expected-reward values behind a formula, taken
// from the checker's memoized plan result (ModelChecker::result), so they
// cost no extra solve.
#pragma once

#include <vector>

#include "checker/sat.hpp"
#include "logic/ast.hpp"

namespace csrlmrm::checker {

/// The states where the configured accuracy (truncation probability w,
/// transient epsilon, discretization step d) cannot decide the formula:
/// some threshold comparison's value interval straddles its bound.
const std::vector<bool>& unknown_set(ModelChecker& checker, const logic::FormulaPtr& formula);

/// The per-state steady-state probabilities behind an S-operator node.
/// Throws std::invalid_argument for any other node.
std::vector<double> steady_probabilities(ModelChecker& checker,
                                         const logic::FormulaPtr& formula);

/// The per-state expected-reward values behind an R-operator node
/// (cumulative, reachability — possibly +infinity —, or long-run rate).
/// Throws std::invalid_argument for any other node.
std::vector<double> expected_rewards(ModelChecker& checker, const logic::FormulaPtr& formula);

}  // namespace csrlmrm::checker
