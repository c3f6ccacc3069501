// Deterministic textual rendering of a compiled plan (`mrmcheck --explain`).
//
// The format is part of the tool's stable surface — tests/golden_plans/
// pins it over the paper's formula corpus, so changes here must update the
// golden files deliberately. Numbers print in shortest round-trip form
// (logic/number_format.hpp) and ops in their topological storage order, so
// the same (model, batch, options) always renders the same text.
#pragma once

#include <string>

#include "plan/ir.hpp"

namespace csrlmrm::plan {

/// Renders the plan:
///
///   plan: 2 formulas, 7 ops, states=12
///   passes: cse_hits=3 transforms_hoisted=1
///   %0 = labelset "up"
///   %1 = not %0
///   %2 = transform M[!phi|psi] of %0 %1 [shared x2]
///   %3 = until %0 %1 time=[0,5] reward=[0,3] class=P2:time-reward transform=%2
///   %4 = compare %3 >= 0.3
///   root[0] = %4  ; P(>= 0.3) [(up) U[0,5][0,3] (!up)]
std::string print_plan(const Plan& plan);

}  // namespace csrlmrm::plan
