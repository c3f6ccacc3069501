#include "plan/printer.hpp"

#include <string>

#include "checker/until.hpp"
#include "logic/number_format.hpp"
#include "logic/printer.hpp"

namespace csrlmrm::plan {

namespace {

// All text is built by in-place append: GCC 12's -Wrestrict misfires on the
// `const char* + std::string&&` operator under -O2 (visible in the -Werror
// nostats guard build), and append-only code sidesteps the whole pattern.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  ((out += parts), ...);
}

std::string op_ref(OpId id) {
  std::string out = "%";
  out += std::to_string(id);
  return out;
}

std::string op_line(OpId id, const PlanOp& op) {
  std::string line;
  append(line, op_ref(id), " = ", to_string(op.kind));
  switch (op.kind) {
    case OpKind::kConstTrue:
    case OpKind::kConstFalse:
      break;
    case OpKind::kLabelSet:
      append(line, " \"", op.label, "\"");
      break;
    case OpKind::kNot:
    case OpKind::kAnd:
    case OpKind::kOr:
    case OpKind::kSteadySolve:
      for (const OpId input : op.inputs) append(line, " ", op_ref(input));
      break;
    case OpKind::kNextSolve:
      append(line, " ", op_ref(op.inputs[0]), " time=", op.time_bound.to_string(),
             " reward=", op.reward_bound.to_string());
      break;
    case OpKind::kUntilSolve:
      append(line, " ", op_ref(op.inputs[0]), " ", op_ref(op.inputs[1]),
             " time=", op.time_bound.to_string(), " reward=", op.reward_bound.to_string(),
             " class=",
             checker::to_string(checker::classify_until(op.time_bound, op.reward_bound)));
      break;
    case OpKind::kRewardSolve: {
      const auto& node =
          static_cast<const logic::ExpectedRewardFormula&>(*op.reward_node);
      switch (node.query) {
        case logic::RewardQuery::kCumulative:
          append(line, " C[0,", logic::format_number(node.time_horizon), "]");
          break;
        case logic::RewardQuery::kReachability:
          append(line, " F ", op_ref(op.inputs[0]));
          break;
        case logic::RewardQuery::kLongRun:
          line += " S";
          break;
      }
      break;
    }
    case OpKind::kCompare:
      append(line, " ", op_ref(op.inputs[0]), " ", logic::to_string(op.compare_op), " ",
             logic::format_number(op.threshold));
      break;
  }
  // Sharing annotations only on the ops where sharing is a win worth seeing
  // (solves); shared set ops would be line noise.
  const bool shareable = op.kind == OpKind::kSteadySolve ||
                         op.kind == OpKind::kNextSolve ||
                         op.kind == OpKind::kUntilSolve ||
                         op.kind == OpKind::kRewardSolve;
  if (shareable && op.uses > 1) {
    append(line, " [shared x", std::to_string(op.uses), "]");
  }
  return line;
}

}  // namespace

std::string print_plan(const Plan& plan) {
  std::string out;
  append(out, "plan: ", std::to_string(plan.formulas.size()), " formulas, ",
         std::to_string(plan.ops.size()), " ops, states=",
         std::to_string(plan.num_states), "\n");
  append(out, "passes: cse_hits=", std::to_string(plan.cse_hits), "\n");
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    append(out, op_line(id, plan.ops[id]), "\n");
  }
  for (std::size_t i = 0; i < plan.roots.size(); ++i) {
    append(out, "root[", std::to_string(i), "] = ", op_ref(plan.roots[i]), "  ; ",
           logic::to_string(plan.formulas[i]), "\n");
  }
  return out;
}

}  // namespace csrlmrm::plan
