// Recursive-descent parser for the appendix CSRL grammar:
//
//   state   := or
//   or      := and ( '||' and )*
//   and     := unary ( '&&' unary )*
//   unary   := '!' unary | primary
//   primary := '(' state ')' | 'TT' | 'FF'
//            | 'S' '(' cmp number ')' unary
//            | 'P' '(' cmp number ')' '[' path ']'
//            | identifier
//   path    := 'X' bounds state | state 'U' bounds state
//   bounds  := interval? interval?        (first = time I, second = reward J;
//                                          omitted intervals mean [0,~])
//   interval:= '[' num_or_inf ',' num_or_inf ']'
//   cmp     := '<' | '<=' | '>' | '>='
//
// TT/FF (and lowercase tt/ff) are recognized keywords; S, P, X, U act as
// keywords only in operator position, so atomic propositions such as "Sup"
// or "Up" parse as plain identifiers.
#pragma once

#include <cstddef>
#include <string>

#include "logic/ast.hpp"
#include "logic/lexer.hpp"

namespace csrlmrm::logic {

/// The deepest formula the parser accepts, counted as nested operators plus
/// the binary connectives of the whole formula (an upper bound on the AST
/// height). The parser, the plan lowerer, the printer and the AST destructor
/// all recurse once per level, so this cap is what keeps a hostile input
/// such as 100k `!` from overflowing the stack.
inline constexpr std::size_t kMaxFormulaDepth = 1000;

/// Parses a CSRL state formula; throws ParseError with a column on failure,
/// including at the token where the formula exceeds kMaxFormulaDepth.
FormulaPtr parse_formula(const std::string& input);

}  // namespace csrlmrm::logic
