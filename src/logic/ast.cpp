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

bool intervals_equal(const Interval& a, const Interval& b) {
  // Bitwise endpoint comparison (infinities compare equal to themselves);
  // NaN endpoints cannot occur (Interval's constructor rejects them).
  return core::exactly_equal(a.lower(), b.lower()) &&
         core::exactly_equal(a.upper(), b.upper());
}

}  // namespace

bool equal(const FormulaPtr& lhs, const FormulaPtr& rhs) {
  if (lhs.get() == rhs.get()) return true;
  if (!lhs || !rhs) return false;
  if (lhs->kind != rhs->kind) return false;
  switch (lhs->kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return true;
    case FormulaKind::kAtomic:
      return static_cast<const AtomicFormula&>(*lhs).name ==
             static_cast<const AtomicFormula&>(*rhs).name;
    case FormulaKind::kNot:
      return equal(static_cast<const NotFormula&>(*lhs).operand,
                   static_cast<const NotFormula&>(*rhs).operand);
    case FormulaKind::kOr: {
      const auto& a = static_cast<const OrFormula&>(*lhs);
      const auto& b = static_cast<const OrFormula&>(*rhs);
      return equal(a.lhs, b.lhs) && equal(a.rhs, b.rhs);
    }
    case FormulaKind::kAnd: {
      const auto& a = static_cast<const AndFormula&>(*lhs);
      const auto& b = static_cast<const AndFormula&>(*rhs);
      return equal(a.lhs, b.lhs) && equal(a.rhs, b.rhs);
    }
    case FormulaKind::kSteady: {
      const auto& a = static_cast<const SteadyFormula&>(*lhs);
      const auto& b = static_cast<const SteadyFormula&>(*rhs);
      return a.op == b.op && core::exactly_equal(a.bound, b.bound) &&
             equal(a.operand, b.operand);
    }
    case FormulaKind::kProbNext: {
      const auto& a = static_cast<const ProbNextFormula&>(*lhs);
      const auto& b = static_cast<const ProbNextFormula&>(*rhs);
      return a.op == b.op && core::exactly_equal(a.bound, b.bound) &&
             intervals_equal(a.time_bound, b.time_bound) &&
             intervals_equal(a.reward_bound, b.reward_bound) && equal(a.operand, b.operand);
    }
    case FormulaKind::kProbUntil: {
      const auto& a = static_cast<const ProbUntilFormula&>(*lhs);
      const auto& b = static_cast<const ProbUntilFormula&>(*rhs);
      return a.op == b.op && core::exactly_equal(a.bound, b.bound) &&
             intervals_equal(a.time_bound, b.time_bound) &&
             intervals_equal(a.reward_bound, b.reward_bound) && equal(a.lhs, b.lhs) &&
             equal(a.rhs, b.rhs);
    }
    case FormulaKind::kExpectedReward: {
      const auto& a = static_cast<const ExpectedRewardFormula&>(*lhs);
      const auto& b = static_cast<const ExpectedRewardFormula&>(*rhs);
      return a.op == b.op && core::exactly_equal(a.bound, b.bound) && a.query == b.query &&
             core::exactly_equal(a.time_horizon, b.time_horizon) && equal(a.operand, b.operand);
    }
  }
  throw std::logic_error("logic::equal: unknown formula kind");
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
