// The plan IR: a CSRL formula batch lowered to a DAG of typed ops.
//
// A Plan is the compiled form of a batch of state formulas against one MRM
// and one CheckerOptions configuration. It is the checker's only evaluation
// path: checker::ModelChecker compiles one-root plans, mrmcheck --formulas
// and mrmcheckd compile whole batches, and each batch runs once — a failing
// op fails only the formulas built on it (plan/executor.hpp). Ops come in
// three families:
//
//   set ops      const tt/ff, label-set eval, Kleene !/&&/|| — produce a
//                three-valued SatSets per state
//   numeric ops  steady-/next-/until-/reward-solve — produce the widened
//                per-state value enclosures (and the raw pessimistic values)
//                by calling the checker/operator_eval.hpp functions
//   compare ops  threshold comparison of a solve op's enclosures — produce
//                a SatSets again
//
// A plan is pure IR: it holds no model and no cache. The absorbing
// transforms behind the until solves come from the core::TransformCache the
// caller passes to plan::execute, bound to the model.
//
// Ops are stored in topological order (inputs strictly before consumers), so
// the executor is a single forward walk. The compiler's common-subformula
// dedup guarantees at most one op per structural key, which is what makes a
// batch share label sets, operand sets and solves (formulas differing only
// in their threshold share the whole solve!).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "checker/options.hpp"
#include "logic/ast.hpp"

namespace csrlmrm::plan {

using OpId = std::size_t;

enum class OpKind {
  kConstTrue,
  kConstFalse,
  kLabelSet,
  kNot,
  kAnd,
  kOr,
  kSteadySolve,
  kNextSolve,
  kUntilSolve,
  kRewardSolve,
  kCompare,
};

/// Stable lower-case op name for the plan printer ("labelset", "until", ...).
const char* to_string(OpKind kind);

/// One op. Which fields are meaningful depends on `kind`; unused fields keep
/// their defaults so ops compare and print deterministically.
struct PlanOp {
  OpKind kind = OpKind::kConstTrue;
  /// Set-valued operand ops (kNot: 1; kAnd/kOr: 2; kSteadySolve: 1;
  /// kNextSolve: 1; kUntilSolve: lhs, rhs; kRewardSolve: the F-target for
  /// reachability queries, else empty; kCompare: the solve op whose bounds it
  /// compares).
  std::vector<OpId> inputs;

  std::string label;                      // kLabelSet: the atomic proposition
  logic::Comparison compare_op = logic::Comparison::kGreaterEqual;  // kCompare
  double threshold = 0.0;                                           // kCompare
  logic::Interval time_bound;             // kUntilSolve / kNextSolve
  logic::Interval reward_bound;           // kUntilSolve / kNextSolve
  logic::FormulaPtr reward_node;          // kRewardSolve: the R-operator node

  /// Number of consumers in the DAG (other ops' inputs); the printer reports
  /// solves shared by more than one.
  std::size_t uses = 0;
};

/// A compiled batch. Bound to the model and options it was compiled against;
/// executing it on a different model is undefined.
struct Plan {
  std::vector<PlanOp> ops;   // topological order
  /// One root op per input formula, in input order.
  std::vector<OpId> roots;
  /// The input formulas (for printing; roots[i] realizes formulas[i]).
  std::vector<logic::FormulaPtr> formulas;
  /// The checker configuration baked into every solve op.
  checker::CheckerOptions options;

  /// States of the model the plan was compiled against.
  std::size_t num_states = 0;

  // --- pass summary (deterministic; pinned by the pass-level tests) ---
  /// Lowering requests answered by an already-interned op (the CSE pass).
  std::size_t cse_hits = 0;
};

}  // namespace csrlmrm::plan
