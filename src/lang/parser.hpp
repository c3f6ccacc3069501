// Parser for the MRM specification language (see lang/spec.hpp for the
// grammar by example). Produces a ModelSpec; all errors raise SpecError
// with a 1-based line number.
#pragma once

#include <cstddef>
#include <string>

#include "lang/spec.hpp"

namespace csrlmrm::lang {

/// The deepest expression the parser accepts, counted as open nesting
/// (parentheses and unary operators) plus the chained binary and `?:`
/// operators of the whole expression (an upper bound on its tree height).
/// The parser, the evaluator and the tree's destructor all recurse once per
/// level, so this cap is what keeps a hostile spec such as 200 000 `(` or a
/// 300 000-term `1+1+...+1` chain from overflowing the stack. One nesting
/// level costs the parser ten frames (about 9 KB in a GCC 12 AddressSanitizer
/// build), so the cap sits at about half of what an 8 MB stack holds there.
inline constexpr std::size_t kMaxExpressionDepth = 500;

/// Parses a full specification text; raises SpecError with the line number,
/// including at the token where an expression exceeds kMaxExpressionDepth.
ModelSpec parse_spec(const std::string& text);

/// Parses a single expression (exposed for tests and for tools that accept
/// expression snippets, e.g. reward queries over a loaded spec).
ExprPtr parse_expression(const std::string& text);

}  // namespace csrlmrm::lang
