// The plan IR: a CSRL formula batch lowered to a DAG of typed ops.
//
// A Plan is the compiled form of a batch of state formulas against one MRM
// and one CheckerOptions configuration. It is the checker's only evaluation
// path: checker::ModelChecker compiles one-root plans, mrmcheck --formulas
// and mrmcheckd compile whole batches. Ops come in three families:
//
//   set ops      const tt/ff, label-set eval, Kleene !/&&/|| — produce a
//                three-valued SatSets per state
//   numeric ops  steady-/next-/until-/reward-solve — produce the widened
//                per-state value enclosures (and the raw pessimistic values)
//                by calling the checker/operator_eval.hpp functions
//   compare ops  threshold comparison of a solve op's enclosures — produce
//                a SatSets again
//
// plus structural kTransform ops that name the hoisted absorbing transforms
// (M[!Phi v Psi], M[!Phi], M[!Phi && !Psi]) shared by the until solves; the
// actual models live in the plan's TransformCache, prewarmed at compile time
// where operand sets are compile-time known.
//
// Ops are stored in topological order (inputs strictly before consumers), so
// the executor is a single forward walk. The compiler's common-subformula
// dedup guarantees at most one op per structural key, which is what makes a
// batch share label sets, operand sets, solves (formulas differing only in
// their threshold share the whole solve!) and transforms.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"

namespace csrlmrm::plan {

using OpId = std::size_t;
inline constexpr OpId kNoOp = std::numeric_limits<OpId>::max();

enum class OpKind {
  kConstTrue,
  kConstFalse,
  kLabelSet,
  kNot,
  kAnd,
  kOr,
  kTransform,
  kSteadySolve,
  kNextSolve,
  kUntilSolve,
  kRewardSolve,
  kCompare,
};

/// Stable lower-case op name for the plan printer ("labelset", "until", ...).
const char* to_string(OpKind kind);

/// Which dispatch class of checker/until.hpp an until-solve op lands in
/// (decided at compile time from the bound shapes alone).
enum class UntilClass {
  kUnbounded,        // P0: linear system on the embedded DTMC
  kTimeBounded,      // P1: transient analysis of M[!Phi v Psi]
  kTwoPhase,         // P1': [t1,t2] two-phase reduction via M[!Phi]
  kTimeReward,       // P2: [0,t] + [0,r] on M[!Phi v Psi], engine-evaluated
  kPointTimeReward,  // [t,t] + [0,r] on M[!Phi && !Psi] (Theorem 4.2)
  kUnsupported,      // raises UnsupportedFormulaError at execution
};

const char* to_string(UntilClass cls);

/// Shape of a hoisted absorbing transform, relative to an until op's operand
/// sets (Phi = inputs[0], Psi = inputs[1]).
enum class TransformShape {
  kNotPhiOrPsi,  // M[!Phi v Psi] (Theorem 4.1)
  kNotPhi,       // M[!Phi] (the [Bai03] phase-one chain)
  kDead,         // M[!Phi && !Psi] (Theorem 4.2)
};

const char* to_string(TransformShape shape);

/// One op. Which fields are meaningful depends on `kind`; unused fields keep
/// their defaults so ops compare and print deterministically.
struct PlanOp {
  OpKind kind = OpKind::kConstTrue;
  /// Set-valued operand ops (kNot: 1; kAnd/kOr: 2; kSteadySolve: 1;
  /// kNextSolve: 1; kUntilSolve: lhs, rhs; kTransform: the sets its mask is
  /// built from; kRewardSolve: the F-target for reachability queries, else
  /// empty; kCompare: the solve op whose bounds it compares).
  std::vector<OpId> inputs;

  std::string label;                      // kLabelSet: the atomic proposition
  logic::Comparison compare_op = logic::Comparison::kGreaterEqual;  // kCompare
  double threshold = 0.0;                                           // kCompare
  logic::Interval time_bound;             // kUntilSolve / kNextSolve
  logic::Interval reward_bound;           // kUntilSolve / kNextSolve
  logic::FormulaPtr reward_node;          // kRewardSolve: the R-operator node
  UntilClass until_class = UntilClass::kUnbounded;      // kUntilSolve
  TransformShape transform_shape = TransformShape::kNotPhiOrPsi;  // kTransform
  OpId transform = kNoOp;                 // kUntilSolve: its hoisted transform

  /// Number of consumers in the DAG (other ops' inputs/transform references);
  /// the printer reports transforms and solves shared by more than one.
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

  /// Hoisted absorbing transforms, prewarmed at compile time for ops whose
  /// masks were compile-time known and filled lazily during execution for
  /// the rest. Shared across executions of this plan (not thread-safe: one
  /// execution at a time). Null when hoisting is disabled.
  std::shared_ptr<core::TransformCache> transforms;

  /// States of the model the plan was compiled against.
  std::size_t num_states = 0;

  // --- pass summary (deterministic; pinned by the pass-level tests) ---
  /// Lowering requests answered by an already-interned op (the CSE pass).
  std::size_t cse_hits = 0;
  /// Transform-op references beyond each transform's first (hoisting wins).
  std::size_t transforms_hoisted = 0;
};

}  // namespace csrlmrm::plan
