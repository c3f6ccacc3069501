#include "oracle/checker_accessors.hpp"

#include <stdexcept>

namespace csrlmrm::checker {

// A null formula passes the kind checks and fails in ModelChecker::result,
// with the checker's own "null formula" error.

const std::vector<bool>& unknown_set(ModelChecker& checker, const logic::FormulaPtr& formula) {
  return checker.result(formula).unknown;
}

std::vector<double> steady_probabilities(ModelChecker& checker,
                                         const logic::FormulaPtr& formula) {
  if (formula && formula->kind != logic::FormulaKind::kSteady) {
    throw std::invalid_argument(
        "ModelChecker::steady_probabilities: formula is not an S-operator node");
  }
  return checker.result(formula).values;
}

std::vector<double> expected_rewards(ModelChecker& checker, const logic::FormulaPtr& formula) {
  if (formula && formula->kind != logic::FormulaKind::kExpectedReward) {
    throw std::invalid_argument(
        "ModelChecker::expected_rewards: formula is not an R-operator node");
  }
  return checker.result(formula).values;
}

}  // namespace csrlmrm::checker
