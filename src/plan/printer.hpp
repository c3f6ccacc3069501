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
///   plan: 2 formulas, 5 ops, states=12
///   passes: cse_hits=5
///   %0 = labelset "up"
///   %1 = not %0
///   %2 = until %0 %1 time=[0,5] reward=[0,3] class=P2:time-reward [shared x2]
///   %3 = compare %2 >= 0.3
///   %4 = compare %2 >= 0.5
///   root[0] = %3  ; P(>= 0.3) [up U[0,5][0,3] !(up)]
///   root[1] = %4  ; P(>= 0.5) [up U[0,5][0,3] !(up)]
std::string print_plan(const Plan& plan);

}  // namespace csrlmrm::plan
