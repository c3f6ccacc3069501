// The plan compiler: lowers a CSRL formula batch into the plan IR through a
// fixed pass pipeline.
//
//   1. lowering with common-subformula dedup — every structurally equal
//      subformula (logic::equal) becomes one op, and numeric solves are
//      keyed *without* their threshold, so P(>0.1)[phi] and P(>0.5)[phi]
//      share the entire solve and differ only in their compare op;
//   2. transform hoisting — the absorbing transforms behind the until
//      classes (M[!Phi v Psi], M[!Phi], M[!Phi && !Psi]) become shared
//      kTransform ops, prewarmed into the plan's TransformCache when the
//      operand sets are compile-time computable.
//
// Compilation runs no numeric solves; it is O(batch size + transforms).
#pragma once

#include <memory>
#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"
#include "plan/ir.hpp"

namespace csrlmrm::plan {

/// Pass toggles. The defaults are what every front end uses; tests switch
/// the passes off to get the reference plan the passes must reproduce
/// bitwise (tests/test_plan_differential.cpp).
struct PlanOptions {
  /// Common-subformula dedup across the batch (pass 1). Off: every
  /// subformula occurrence lowers to its own op.
  bool cse = true;
  /// Shared absorbing-transform ops + compile-time prewarming (pass 2).
  /// Off: the plan carries no TransformCache and every until query rebuilds
  /// its transforms.
  bool hoist_transforms = true;
  /// When set (and hoist_transforms is on), the compiled plan uses this
  /// TransformCache instead of a fresh one, so transforms built by earlier
  /// compilations of the SAME model stay warm — mrmcheckd binds one cache per
  /// resident model and passes it here on every request. The cache keys by
  /// mask alone; the caller owns the cache-per-model discipline.
  std::shared_ptr<core::TransformCache> shared_transforms;
};

/// Compiles `formulas` against `model` under `options`. The returned plan
/// holds shared_ptr state (transforms) and the input formulas; the model
/// itself is NOT retained — pass the same model to execute().
Plan compile(const core::Mrm& model, const std::vector<logic::FormulaPtr>& formulas,
             const checker::CheckerOptions& options, const PlanOptions& plan_options = {});

}  // namespace csrlmrm::plan
