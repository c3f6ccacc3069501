#include "logic/ast.hpp"

#include <cmath>
#include <stdexcept>

namespace csrlmrm::logic {

bool compare(double value, Comparison op, double bound) {
  switch (op) {
    case Comparison::kLess:
      return value < bound;
    case Comparison::kLessEqual:
      return value <= bound;
    case Comparison::kGreater:
      return value > bound;
    case Comparison::kGreaterEqual:
      return value >= bound;
  }
  throw std::logic_error("compare: invalid comparison operator");
}

std::string to_string(Comparison op) {
  switch (op) {
    case Comparison::kLess:
      return "<";
    case Comparison::kLessEqual:
      return "<=";
    case Comparison::kGreater:
      return ">";
    case Comparison::kGreaterEqual:
      return ">=";
  }
  throw std::logic_error("to_string: invalid comparison operator");
}

namespace {
void require_probability_bound(double bound) {
  if (std::isnan(bound) || bound < 0.0 || bound > 1.0) {
    throw std::invalid_argument("probability bound must be in [0,1]");
  }
}
void require_operand(const FormulaPtr& f, const char* what) {
  if (!f) throw std::invalid_argument(std::string(what) + ": null sub-formula");
}
}  // namespace

FormulaPtr make_true() { return std::make_shared<TrueFormula>(); }

FormulaPtr make_false() { return std::make_shared<FalseFormula>(); }

FormulaPtr make_atomic(std::string name) {
  if (name.empty()) throw std::invalid_argument("make_atomic: empty proposition name");
  return std::make_shared<AtomicFormula>(std::move(name));
}

FormulaPtr make_not(FormulaPtr operand) {
  require_operand(operand, "make_not");
  return std::make_shared<NotFormula>(std::move(operand));
}

FormulaPtr make_or(FormulaPtr lhs, FormulaPtr rhs) {
  require_operand(lhs, "make_or");
  require_operand(rhs, "make_or");
  return std::make_shared<OrFormula>(std::move(lhs), std::move(rhs));
}

FormulaPtr make_and(FormulaPtr lhs, FormulaPtr rhs) {
  require_operand(lhs, "make_and");
  require_operand(rhs, "make_and");
  return std::make_shared<AndFormula>(std::move(lhs), std::move(rhs));
}

FormulaPtr make_steady(Comparison op, double bound, FormulaPtr operand) {
  require_probability_bound(bound);
  require_operand(operand, "make_steady");
  return std::make_shared<SteadyFormula>(op, bound, std::move(operand));
}

FormulaPtr make_prob_next(Comparison op, double bound, Interval time, Interval reward,
                          FormulaPtr operand) {
  require_probability_bound(bound);
  require_operand(operand, "make_prob_next");
  return std::make_shared<ProbNextFormula>(op, bound, time, reward, std::move(operand));
}

FormulaPtr make_prob_until(Comparison op, double bound, Interval time, Interval reward,
                           FormulaPtr lhs, FormulaPtr rhs) {
  require_probability_bound(bound);
  require_operand(lhs, "make_prob_until");
  require_operand(rhs, "make_prob_until");
  return std::make_shared<ProbUntilFormula>(op, bound, time, reward, std::move(lhs),
                                            std::move(rhs));
}

namespace {
void require_reward_bound(double bound) {
  if (std::isnan(bound) || bound < 0.0) {
    throw std::invalid_argument("reward bound must be >= 0");
  }
}
}  // namespace

FormulaPtr make_reward_cumulative(Comparison op, double bound, double time_horizon) {
  require_reward_bound(bound);
  if (std::isnan(time_horizon) || time_horizon < 0.0 || std::isinf(time_horizon)) {
    throw std::invalid_argument("make_reward_cumulative: time horizon must be finite, >= 0");
  }
  return std::make_shared<ExpectedRewardFormula>(op, bound, RewardQuery::kCumulative,
                                                 time_horizon, nullptr);
}

FormulaPtr make_reward_reachability(Comparison op, double bound, FormulaPtr operand) {
  require_reward_bound(bound);
  require_operand(operand, "make_reward_reachability");
  return std::make_shared<ExpectedRewardFormula>(op, bound, RewardQuery::kReachability, 0.0,
                                                 std::move(operand));
}

FormulaPtr make_reward_long_run(Comparison op, double bound) {
  require_reward_bound(bound);
  return std::make_shared<ExpectedRewardFormula>(op, bound, RewardQuery::kLongRun, 0.0,
                                                 nullptr);
}

}  // namespace csrlmrm::logic
