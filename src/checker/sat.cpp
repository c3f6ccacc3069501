#include "checker/sat.hpp"

#include <exception>
#include <stdexcept>

#include "plan/compiler.hpp"

namespace csrlmrm::checker {

namespace {

logic::FormulaKind require_kind(const logic::FormulaPtr& formula) {
  if (!formula) throw std::invalid_argument("ModelChecker: null formula");
  return formula->kind;
}

}  // namespace

ModelChecker::ModelChecker(const core::Mrm& model, CheckerOptions options)
    : model_(&model),
      options_(std::move(options)),
      transforms_(std::make_unique<core::TransformCache>(model)) {}

const plan::FormulaResult& ModelChecker::result(const logic::FormulaPtr& formula) {
  require_kind(formula);
  const auto cached = results_.find(formula.get());
  if (cached != results_.end()) return cached->second.result;
  const plan::Plan compiled = plan::compile(*model_, {formula}, options_);
  plan::FormulaResult executed =
      std::move(plan::execute(compiled, *model_, *transforms_).formulas.front());
  // A failure is thrown, not memoized: asking again re-runs the plan.
  if (executed.error) std::rethrow_exception(executed.error);
  Entry entry{formula, std::move(executed)};
  return results_.emplace(formula.get(), std::move(entry)).first->second.result;
}

const std::vector<bool>& ModelChecker::satisfaction_set(const logic::FormulaPtr& formula) {
  return result(formula).sat;
}

std::vector<Verdict> ModelChecker::verdicts(const logic::FormulaPtr& formula) {
  return result(formula).verdicts;
}

bool ModelChecker::satisfies(core::StateIndex state, const logic::FormulaPtr& formula) {
  if (state >= model_->num_states()) {
    throw std::out_of_range("ModelChecker::satisfies: state out of range");
  }
  return satisfaction_set(formula)[state];
}

std::vector<UntilValue> ModelChecker::path_probabilities(const logic::FormulaPtr& formula) {
  const logic::FormulaKind kind = require_kind(formula);
  if (kind != logic::FormulaKind::kProbNext && kind != logic::FormulaKind::kProbUntil) {
    throw std::invalid_argument(
        "ModelChecker::path_probabilities: formula is not a P-operator node");
  }
  return result(formula).probabilities;
}

std::vector<ProbabilityBound> ModelChecker::value_bounds(const logic::FormulaPtr& formula) {
  switch (require_kind(formula)) {
    case logic::FormulaKind::kSteady:
    case logic::FormulaKind::kProbNext:
    case logic::FormulaKind::kProbUntil:
    case logic::FormulaKind::kExpectedReward:
      return result(formula).bounds;
    default:
      throw std::invalid_argument(
          "ModelChecker::value_bounds: formula is not an S/P/R-operator node");
  }
}

}  // namespace csrlmrm::checker
