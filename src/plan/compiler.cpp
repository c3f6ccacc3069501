#include "plan/compiler.hpp"

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "checker/operator_eval.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "logic/number_format.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::plan {

namespace {

/// Mirrors the dispatch order of checker::until_probabilities exactly; see
/// the comments there. Classification only looks at the bound shapes, which
/// the AST fixes at compile time.
UntilClass classify_until(const logic::Interval& time, const logic::Interval& reward) {
  const bool time_trivial = time.is_trivial();
  const bool reward_trivial = reward.is_trivial();
  if (!reward_trivial &&
      (!core::exactly_zero(reward.lower()) || reward.is_upper_unbounded())) {
    return UntilClass::kUnsupported;  // reward bounds must be [0,r]
  }
  if (time_trivial && reward_trivial) return UntilClass::kUnbounded;
  if (reward_trivial && time.lower() > 0.0 && !time.is_upper_unbounded()) {
    return UntilClass::kTwoPhase;
  }
  const bool time_zero_based = core::exactly_zero(time.lower()) && !time.is_upper_unbounded();
  const bool time_point = time.is_point() && !time.is_upper_unbounded();
  if (!time_zero_based && !time_point) return UntilClass::kUnsupported;
  if (reward_trivial) return UntilClass::kTimeBounded;  // time_zero_based holds here
  if (time_point && time.lower() > 0.0) return UntilClass::kPointTimeReward;
  return UntilClass::kTimeReward;
}

/// The primary absorbing transform each until class builds (the two-phase
/// class additionally builds M[!Phi v Psi] for its residual query, reached
/// lazily through the shared cache at execution time).
std::optional<TransformShape> primary_transform(UntilClass cls) {
  switch (cls) {
    case UntilClass::kTimeBounded:
    case UntilClass::kTimeReward:
      return TransformShape::kNotPhiOrPsi;
    case UntilClass::kTwoPhase:
      return TransformShape::kNotPhi;
    case UntilClass::kPointTimeReward:
      return TransformShape::kDead;
    case UntilClass::kUnbounded:
    case UntilClass::kUnsupported:
      return std::nullopt;
  }
  return std::nullopt;
}

/// The absorbing mask of one transform shape over compile-time operand sets.
std::vector<bool> transform_mask(TransformShape shape, const checker::SatSets& phi,
                                 const checker::SatSets& psi) {
  const std::size_t n = phi.sat.size();
  std::vector<bool> absorb(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    switch (shape) {
      case TransformShape::kNotPhiOrPsi:
        absorb[s] = !phi.sat[s] || psi.sat[s];
        break;
      case TransformShape::kNotPhi:
        absorb[s] = !phi.sat[s];
        break;
      case TransformShape::kDead:
        absorb[s] = !phi.sat[s] && !psi.sat[s];
        break;
    }
  }
  return absorb;
}

class Lowerer {
 public:
  Lowerer(const core::Mrm& model, const PlanOptions& plan_options, Plan& plan)
      : model_(model), plan_options_(plan_options), plan_(plan) {}

  OpId lower(const logic::FormulaPtr& formula) {
    if (!formula) throw std::invalid_argument("plan::compile: null formula");
    switch (formula->kind) {
      case logic::FormulaKind::kTrue: {
        PlanOp op;
        op.kind = OpKind::kConstTrue;
        checker::SatSets sets;
        sets.sat.assign(model_.num_states(), true);
        sets.unknown.assign(model_.num_states(), false);
        return intern("tt", std::move(op), std::move(sets));
      }
      case logic::FormulaKind::kFalse: {
        PlanOp op;
        op.kind = OpKind::kConstFalse;
        checker::SatSets sets;
        sets.sat.assign(model_.num_states(), false);
        sets.unknown.assign(model_.num_states(), false);
        return intern("ff", std::move(op), std::move(sets));
      }
      case logic::FormulaKind::kAtomic: {
        const auto& node = static_cast<const logic::AtomicFormula&>(*formula);
        PlanOp op;
        op.kind = OpKind::kLabelSet;
        op.label = node.name;
        checker::SatSets sets;
        sets.sat = model_.labels().states_with(node.name);
        sets.unknown.assign(model_.num_states(), false);
        return intern("label:" + node.name, std::move(op), std::move(sets));
      }
      case logic::FormulaKind::kNot: {
        const OpId inner = lower(static_cast<const logic::NotFormula&>(*formula).operand);
        PlanOp op;
        op.kind = OpKind::kNot;
        op.inputs = {inner};
        std::optional<checker::SatSets> sets;
        if (known_[inner]) sets = checker::kleene_not(*known_[inner]);
        return intern("not(" + std::to_string(inner) + ")", std::move(op), std::move(sets));
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
        std::optional<checker::SatSets> sets;
        if (known_[lhs] && known_[rhs]) {
          sets = is_or ? checker::kleene_or(*known_[lhs], *known_[rhs])
                       : checker::kleene_and(*known_[lhs], *known_[rhs]);
        }
        const std::string key = std::string(is_or ? "or(" : "and(") + std::to_string(lhs) +
                                "," + std::to_string(rhs) + ")";
        return intern(key, std::move(op), std::move(sets));
      }
      case logic::FormulaKind::kSteady: {
        const auto& node = static_cast<const logic::SteadyFormula&>(*formula);
        const OpId operand = lower(node.operand);
        PlanOp op;
        op.kind = OpKind::kSteadySolve;
        op.inputs = {operand};
        const OpId solve =
            intern("steady(" + std::to_string(operand) + ")", std::move(op), std::nullopt);
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
        const OpId solve = intern(key, std::move(op), std::nullopt);
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
  /// with the same key is reused; otherwise a fresh op is appended. `sets`
  /// is the compile-time satisfaction result when one exists (consts,
  /// labels, and boolean combinations thereof — never compare ops, so a
  /// known set always has an empty unknown mask).
  OpId intern(const std::string& key, PlanOp op, std::optional<checker::SatSets> sets) {
    if (plan_options_.cse) {
      const auto found = memo_.find(key);
      if (found != memo_.end()) {
        ++plan_.cse_hits;
        return found->second;
      }
    }
    const OpId id = plan_.ops.size();
    plan_.ops.push_back(std::move(op));
    known_.push_back(std::move(sets));
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
    return intern(key, std::move(op), std::nullopt);
  }

  OpId lower_until_solve(const logic::ProbUntilFormula& node) {
    const OpId lhs = lower(node.lhs);
    const OpId rhs = lower(node.rhs);
    const std::string key = "until(" + std::to_string(lhs) + "," + std::to_string(rhs) + "," +
                            node.time_bound.to_string() + "," +
                            node.reward_bound.to_string() + ")";
    // Probe the memo before running the transform side effects: a duplicate
    // until solve must not count a second hoist.
    if (plan_options_.cse) {
      const auto found = memo_.find(key);
      if (found != memo_.end()) {
        ++plan_.cse_hits;
        return found->second;
      }
    }
    PlanOp op;
    op.kind = OpKind::kUntilSolve;
    op.inputs = {lhs, rhs};
    op.time_bound = node.time_bound;
    op.reward_bound = node.reward_bound;
    op.until_class = classify_until(node.time_bound, node.reward_bound);

    // Pass 2: the hoisted transform op (and cache prewarm when computable).
    const auto shape = primary_transform(op.until_class);
    if (plan_options_.hoist_transforms && shape) {
      op.transform = transform_op(*shape, lhs, rhs);
    }

    return intern(key, std::move(op), std::nullopt);
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
    return intern(key, std::move(op), std::nullopt);
  }

  /// The shared kTransform op for (shape, phi, psi), prewarming the plan's
  /// TransformCache when the masks are compile-time computable. Reuse beyond
  /// the first reference is a hoisting win (counted even with CSE off — the
  /// transform memo is what pass 2 IS).
  OpId transform_op(TransformShape shape, OpId phi, OpId psi) {
    std::string key = "xform(";
    key += to_string(shape);
    key += ",";
    key += std::to_string(phi);
    if (shape != TransformShape::kNotPhi) {
      key += ",";
      key += std::to_string(psi);
    }
    key += ")";
    const auto found = transform_memo_.find(key);
    if (found != transform_memo_.end()) {
      ++plan_.transforms_hoisted;
      return found->second;
    }
    PlanOp op;
    op.kind = OpKind::kTransform;
    op.transform_shape = shape;
    op.inputs = shape == TransformShape::kNotPhi ? std::vector<OpId>{phi}
                                                 : std::vector<OpId>{phi, psi};
    if (plan_.transforms && known_[phi] && known_[psi]) {
      plan_.transforms->absorbing(model_, transform_mask(shape, *known_[phi], *known_[psi]));
      obs::counter_add("plan.transform_prewarms");
    }
    const OpId id = plan_.ops.size();
    plan_.ops.push_back(std::move(op));
    known_.push_back(std::nullopt);
    transform_memo_.emplace(std::move(key), id);
    return id;
  }

  const core::Mrm& model_;
  const PlanOptions& plan_options_;
  Plan& plan_;
  std::map<std::string, OpId> memo_;
  std::map<std::string, OpId> transform_memo_;
  /// Parallel to plan_.ops: the compile-time satisfaction result, when the
  /// op has one (see intern()).
  std::vector<std::optional<checker::SatSets>> known_;
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

  if (plan_options.hoist_transforms) {
    plan.transforms = plan_options.shared_transforms
                          ? plan_options.shared_transforms
                          : std::make_shared<core::TransformCache>();
  }

  Lowerer lowerer(model, plan_options, plan);
  plan.roots.reserve(formulas.size());
  for (const auto& formula : formulas) {
    plan.roots.push_back(lowerer.lower(formula));
  }

  // Use counts, for the printer's sharing annotations.
  for (const PlanOp& op : plan.ops) {
    for (const OpId input : op.inputs) ++plan.ops[input].uses;
    if (op.transform != kNoOp) ++plan.ops[op.transform].uses;
  }

  obs::counter_add("plan.ops", plan.ops.size());
  obs::counter_add("plan.cse.hits", plan.cse_hits);
  obs::counter_add("plan.transforms.hoisted", plan.transforms_hoisted);
  return plan;
}

}  // namespace csrlmrm::plan
