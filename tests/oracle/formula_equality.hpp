// Structural equality of CSRL formulas, the relation the printer tests
// check round trips against: parse(print(f)) must equal f.
#pragma once

#include "logic/ast.hpp"

namespace csrlmrm::logic {

/// Structural equality of two formulas: same shape, same proposition names,
/// and bitwise-equal numeric parameters (thresholds, interval endpoints,
/// time horizons). Null pointers are equal only to each other.
bool equal(const FormulaPtr& lhs, const FormulaPtr& rhs);

}  // namespace csrlmrm::logic
