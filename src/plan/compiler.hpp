// The plan compiler: lowers a CSRL formula batch into the plan IR by
// lowering with common-subformula dedup — every structurally equal
// subformula (logic::equal) becomes one op, and numeric solves are keyed
// *without* their threshold, so P(>0.1)[phi] and P(>0.5)[phi] share the
// entire solve and differ only in their compare op.
//
// Compilation runs no numeric solves and builds no transform; it is
// O(batch size).
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"
#include "logic/ast.hpp"
#include "plan/ir.hpp"

namespace csrlmrm::plan {

/// Pass toggles. The default is what every front end uses; tests switch CSE
/// off to get the reference plan the pass must reproduce bitwise
/// (tests/test_plan_differential.cpp).
struct PlanOptions {
  /// Common-subformula dedup across the batch. Off: every subformula
  /// occurrence lowers to its own op.
  bool cse = true;
};

/// Compiles `formulas` against `model` under `options`. The returned plan
/// holds the input formulas and the model's state count, not the model —
/// pass the same model to execute().
Plan compile(const core::Mrm& model, const std::vector<logic::FormulaPtr>& formulas,
             const checker::CheckerOptions& options, const PlanOptions& plan_options = {});

}  // namespace csrlmrm::plan
