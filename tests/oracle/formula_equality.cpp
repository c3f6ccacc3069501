#include "oracle/formula_equality.hpp"

#include <stdexcept>

#include "core/approx.hpp"

namespace csrlmrm::logic {

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

}  // namespace csrlmrm::logic
