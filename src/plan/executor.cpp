#include "plan/executor.hpp"

#include <exception>
#include <stdexcept>

#include "obs/stats.hpp"

namespace csrlmrm::plan {

PlanResult execute(const Plan& plan, const core::Mrm& model,
                   core::TransformCache& transforms) {
  obs::ScopedTimer timer("plan.execute");
  obs::counter_add("plan.execute.calls");
  if (model.num_states() != plan.num_states) {
    throw std::invalid_argument(
        "plan::execute: model has a different state count than the plan was compiled for");
  }
  if (&transforms.model() != &model) {
    throw std::invalid_argument("plan::execute: the transform cache serves a different model");
  }
  const std::size_t n = model.num_states();
  const checker::CheckerOptions& options = plan.options;

  // Per-op result slots (only the slot matching the op's kind is filled).
  const std::size_t m = plan.ops.size();
  std::vector<checker::SatSets> sets(m);
  std::vector<std::vector<checker::ProbabilityBound>> solve_bounds(m);
  std::vector<std::vector<checker::UntilValue>> solve_untils(m);
  std::vector<std::vector<double>> solve_values(m);

  // Evaluates op `id` into its result slot; its inputs have run.
  const auto evaluate = [&](OpId id) {
    const PlanOp& op = plan.ops[id];
    switch (op.kind) {
      case OpKind::kConstTrue:
        sets[id].sat.assign(n, true);
        sets[id].unknown.assign(n, false);
        break;
      case OpKind::kConstFalse:
        sets[id].sat.assign(n, false);
        sets[id].unknown.assign(n, false);
        break;
      case OpKind::kLabelSet:
        sets[id].sat = model.labels().states_with(op.label);
        sets[id].unknown.assign(n, false);
        break;
      case OpKind::kNot:
        sets[id] = checker::kleene_not(sets[op.inputs[0]]);
        break;
      case OpKind::kAnd:
        sets[id] = checker::kleene_and(sets[op.inputs[0]], sets[op.inputs[1]]);
        break;
      case OpKind::kOr:
        sets[id] = checker::kleene_or(sets[op.inputs[0]], sets[op.inputs[1]]);
        break;
      case OpKind::kSteadySolve: {
        auto evaluation =
            checker::evaluate_steady_operator(model, sets[op.inputs[0]], options);
        solve_values[id] = std::move(evaluation.values);
        solve_bounds[id] = std::move(evaluation.bounds);
        break;
      }
      case OpKind::kNextSolve: {
        auto evaluation = checker::evaluate_next_operator(
            model, sets[op.inputs[0]], op.time_bound, op.reward_bound, options);
        solve_values[id] = std::move(evaluation.probabilities);
        solve_bounds[id] = std::move(evaluation.bounds);
        break;
      }
      case OpKind::kUntilSolve: {
        auto evaluation = checker::evaluate_until_operator(
            model, sets[op.inputs[0]], sets[op.inputs[1]], op.time_bound, op.reward_bound,
            options, &transforms);
        solve_untils[id] = std::move(evaluation.values);
        solve_bounds[id] = std::move(evaluation.bounds);
        break;
      }
      case OpKind::kRewardSolve: {
        const auto& node =
            static_cast<const logic::ExpectedRewardFormula&>(*op.reward_node);
        const checker::SatSets* operand =
            op.inputs.empty() ? nullptr : &sets[op.inputs[0]];
        auto evaluation = checker::evaluate_reward_operator(model, node, operand, options);
        solve_values[id] = std::move(evaluation.values);
        solve_bounds[id] = std::move(evaluation.bounds);
        break;
      }
      case OpKind::kCompare:
        sets[id] = checker::compare_operator_bounds(solve_bounds[op.inputs[0]],
                                                    op.compare_op, op.threshold);
        break;
    }
  };

  // The exception each op threw or inherited from a failed input; an op
  // consuming a failed op is skipped, so one formula's failure stays its own.
  std::vector<std::exception_ptr> failures(m);
  for (OpId id = 0; id < m; ++id) {
    // The first failed input in input order is the failure a plan of this
    // op's formula alone would have thrown first.
    for (const OpId input : plan.ops[id].inputs) {
      if (failures[input]) {
        failures[id] = failures[input];
        break;
      }
    }
    if (failures[id]) continue;
    try {
      evaluate(id);
    } catch (...) {
      failures[id] = std::current_exception();
    }
  }

  PlanResult result;
  result.formulas.reserve(plan.roots.size());
  for (const OpId root : plan.roots) {
    const PlanOp& root_op = plan.ops[root];
    FormulaResult formula;
    if (failures[root]) {
      formula.error = failures[root];
      result.formulas.push_back(std::move(formula));
      continue;
    }
    formula.sat = sets[root].sat;
    formula.unknown = sets[root].unknown;
    formula.verdicts.assign(formula.sat.size(), checker::Verdict::kUnsat);
    for (std::size_t s = 0; s < formula.sat.size(); ++s) {
      if (formula.sat[s]) {
        formula.verdicts[s] = checker::Verdict::kSat;
      } else if (formula.unknown[s]) {
        formula.verdicts[s] = checker::Verdict::kUnknown;
      }
    }
    if (root_op.kind == OpKind::kCompare) {
      const OpId solve = root_op.inputs[0];
      formula.has_bounds = true;
      formula.bounds = solve_bounds[solve];
      switch (plan.ops[solve].kind) {
        case OpKind::kUntilSolve:
          formula.has_probabilities = true;
          formula.probabilities = solve_untils[solve];
          break;
        case OpKind::kNextSolve:
          // Next probabilities are exact: report them as point-interval
          // UntilValues.
          formula.has_probabilities = true;
          formula.probabilities.resize(solve_values[solve].size());
          for (std::size_t s = 0; s < formula.probabilities.size(); ++s) {
            formula.probabilities[s] = checker::exact_until_value(solve_values[solve][s]);
          }
          break;
        case OpKind::kSteadySolve:
        case OpKind::kRewardSolve:
          formula.has_values = true;
          formula.values = solve_values[solve];
          break;
        default:
          break;
      }
    }
    result.formulas.push_back(std::move(formula));
  }
  return result;
}

std::string failure_message(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& failure) {
    return failure.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace csrlmrm::plan
