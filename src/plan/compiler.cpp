#include "plan/compiler.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "logic/number_format.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::plan {

namespace {

class Lowerer {
 public:
  Lowerer(const PlanOptions& plan_options, Plan& plan)
      : plan_options_(plan_options), plan_(plan) {}

  OpId lower(const logic::FormulaPtr& formula) {
    if (!formula) throw std::invalid_argument("plan::compile: null formula");
    switch (formula->kind) {
      case logic::FormulaKind::kTrue: {
        PlanOp op;
        op.kind = OpKind::kConstTrue;
        return intern("tt", std::move(op));
      }
      case logic::FormulaKind::kFalse: {
        PlanOp op;
        op.kind = OpKind::kConstFalse;
        return intern("ff", std::move(op));
      }
      case logic::FormulaKind::kAtomic: {
        const auto& node = static_cast<const logic::AtomicFormula&>(*formula);
        PlanOp op;
        op.kind = OpKind::kLabelSet;
        op.label = node.name;
        return intern("label:" + node.name, std::move(op));
      }
      case logic::FormulaKind::kNot: {
        const OpId inner = lower(static_cast<const logic::NotFormula&>(*formula).operand);
        PlanOp op;
        op.kind = OpKind::kNot;
        op.inputs = {inner};
        return intern("not(" + std::to_string(inner) + ")", std::move(op));
      }
      case logic::FormulaKind::kOr:
      case logic::FormulaKind::kAnd: {
        const bool is_or = formula->kind == logic::FormulaKind::kOr;
        const logic::FormulaPtr& lhs_formula =
            is_or ? static_cast<const logic::OrFormula&>(*formula).lhs
                  : static_cast<const logic::AndFormula&>(*formula).lhs;
        const logic::FormulaPtr& rhs_formula =
            is_or ? static_cast<const logic::OrFormula&>(*formula).rhs
                  : static_cast<const logic::AndFormula&>(*formula).rhs;
        const OpId lhs = lower(lhs_formula);
        const OpId rhs = lower(rhs_formula);
        PlanOp op;
        op.kind = is_or ? OpKind::kOr : OpKind::kAnd;
        op.inputs = {lhs, rhs};
        const std::string key = std::string(is_or ? "or(" : "and(") + std::to_string(lhs) +
                                "," + std::to_string(rhs) + ")";
        return intern(key, std::move(op));
      }
      case logic::FormulaKind::kSteady: {
        const auto& node = static_cast<const logic::SteadyFormula&>(*formula);
        const OpId operand = lower(node.operand);
        PlanOp op;
        op.kind = OpKind::kSteadySolve;
        op.inputs = {operand};
        const OpId solve = intern("steady(" + std::to_string(operand) + ")", std::move(op));
        return lower_compare(solve, node.op, node.bound);
      }
      case logic::FormulaKind::kProbNext: {
        const auto& node = static_cast<const logic::ProbNextFormula&>(*formula);
        const OpId operand = lower(node.operand);
        PlanOp op;
        op.kind = OpKind::kNextSolve;
        op.inputs = {operand};
        op.time_bound = node.time_bound;
        op.reward_bound = node.reward_bound;
        const std::string key = "next(" + std::to_string(operand) + "," +
                                node.time_bound.to_string() + "," +
                                node.reward_bound.to_string() + ")";
        const OpId solve = intern(key, std::move(op));
        return lower_compare(solve, node.op, node.bound);
      }
      case logic::FormulaKind::kProbUntil: {
        const auto& node = static_cast<const logic::ProbUntilFormula&>(*formula);
        const OpId solve = lower_until_solve(node);
        return lower_compare(solve, node.op, node.bound);
      }
      case logic::FormulaKind::kExpectedReward: {
        const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*formula);
        const OpId solve = lower_reward_solve(formula, node);
        return lower_compare(solve, node.op, node.bound);
      }
    }
    throw std::logic_error("plan::compile: unknown formula kind");
  }

 private:
  /// Interns one op under its structural key: with CSE on, an existing op
  /// with the same key is reused; otherwise a fresh op is appended.
  OpId intern(const std::string& key, PlanOp op) {
    if (plan_options_.cse) {
      const auto found = memo_.find(key);
      if (found != memo_.end()) {
        ++plan_.cse_hits;
        return found->second;
      }
    }
    const OpId id = plan_.ops.size();
    plan_.ops.push_back(std::move(op));
    if (plan_options_.cse) memo_.emplace(key, id);
    return id;
  }

  OpId lower_compare(OpId solve, logic::Comparison cmp, double threshold) {
    PlanOp op;
    op.kind = OpKind::kCompare;
    op.inputs = {solve};
    op.compare_op = cmp;
    op.threshold = threshold;
    // Thresholds key by their shortest round-trip form — exact, since the
    // printer round-trip guarantees distinct doubles print distinctly.
    const std::string key = "cmp(" + std::to_string(solve) + "," + logic::to_string(cmp) +
                            "," + logic::format_number(threshold) + ")";
    return intern(key, std::move(op));
  }

  OpId lower_until_solve(const logic::ProbUntilFormula& node) {
    const OpId lhs = lower(node.lhs);
    const OpId rhs = lower(node.rhs);
    const std::string key = "until(" + std::to_string(lhs) + "," + std::to_string(rhs) + "," +
                            node.time_bound.to_string() + "," +
                            node.reward_bound.to_string() + ")";
    PlanOp op;
    op.kind = OpKind::kUntilSolve;
    op.inputs = {lhs, rhs};
    op.time_bound = node.time_bound;
    op.reward_bound = node.reward_bound;
    return intern(key, std::move(op));
  }

  OpId lower_reward_solve(const logic::FormulaPtr& formula,
                          const logic::ExpectedRewardFormula& node) {
    PlanOp op;
    op.kind = OpKind::kRewardSolve;
    // The executor reads only query/time_horizon/operand off this node, so
    // R nodes differing in threshold alone share one solve op.
    op.reward_node = formula;
    std::string key;
    switch (node.query) {
      case logic::RewardQuery::kCumulative:
        key = "reward:C(" + logic::format_number(node.time_horizon) + ")";
        break;
      case logic::RewardQuery::kReachability: {
        const OpId operand = lower(node.operand);
        op.inputs = {operand};
        key = "reward:F(" + std::to_string(operand) + ")";
        break;
      }
      case logic::RewardQuery::kLongRun:
        key = "reward:S";
        break;
    }
    return intern(key, std::move(op));
  }

  const PlanOptions& plan_options_;
  Plan& plan_;
  std::map<std::string, OpId> memo_;
};

}  // namespace

Plan compile(const core::Mrm& model, const std::vector<logic::FormulaPtr>& formulas,
             const checker::CheckerOptions& options, const PlanOptions& plan_options) {
  obs::ScopedTimer timer("plan.compile");
  obs::counter_add("plan.compile.calls");

  Plan plan;
  plan.options = options;
  plan.formulas = formulas;
  plan.num_states = model.num_states();

  Lowerer lowerer(plan_options, plan);
  plan.roots.reserve(formulas.size());
  for (const auto& formula : formulas) {
    plan.roots.push_back(lowerer.lower(formula));
  }

  // Use counts, for the printer's sharing annotations.
  for (const PlanOp& op : plan.ops) {
    for (const OpId input : op.inputs) ++plan.ops[input].uses;
  }

  obs::counter_add("plan.ops", plan.ops.size());
  obs::counter_add("plan.cse.hits", plan.cse_hits);
  return plan;
}

}  // namespace csrlmrm::plan
