// CSRL lexer + parser over the appendix grammar.
#include "logic/parser.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace csrlmrm::logic {
namespace {

TEST(Lexer, TokenizesOperatorsAndWords) {
  const auto tokens = tokenize("P(>=0.3) [a U[0,3][0,23] b]");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "P");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(Lexer, ReadsScientificNotation) {
  const auto tokens = tokenize("1.5e-3");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].value, 1.5e-3);
}

TEST(Lexer, ReportsColumnOfBadCharacter) {
  try {
    tokenize("ab @cd");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.column(), 4u);
  }
}

TEST(Lexer, RejectsSingleAmpersandAndPipe) {
  EXPECT_THROW(tokenize("a & b"), ParseError);
  EXPECT_THROW(tokenize("a | b"), ParseError);
}

TEST(Parser, ParsesAtomsAndConstants) {
  EXPECT_EQ(parse_formula("TT")->kind, FormulaKind::kTrue);
  EXPECT_EQ(parse_formula("tt")->kind, FormulaKind::kTrue);
  EXPECT_EQ(parse_formula("FF")->kind, FormulaKind::kFalse);
  const auto atom = parse_formula("busy");
  ASSERT_EQ(atom->kind, FormulaKind::kAtomic);
  EXPECT_EQ(static_cast<const AtomicFormula&>(*atom).name, "busy");
}

TEST(Parser, BooleanPrecedenceNotOverAndOverOr) {
  // !a && b || c parses as ((!a && b) || c).
  const auto f = parse_formula("!a && b || c");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
  const auto& orf = static_cast<const OrFormula&>(*f);
  ASSERT_EQ(orf.lhs->kind, FormulaKind::kAnd);
  EXPECT_EQ(orf.rhs->kind, FormulaKind::kAtomic);
  const auto& andf = static_cast<const AndFormula&>(*orf.lhs);
  EXPECT_EQ(andf.lhs->kind, FormulaKind::kNot);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const auto f = parse_formula("!(a || b)");
  ASSERT_EQ(f->kind, FormulaKind::kNot);
  EXPECT_EQ(static_cast<const NotFormula&>(*f).operand->kind, FormulaKind::kOr);
}

TEST(Parser, ParsesAppendixExampleFormula) {
  // "a b-state can be reached with probability at least 0.3 by at most 3
  // time-units along a-states accumulating costs at most 23".
  const auto f = parse_formula("P(>= 0.3) [a U [0,3][0,23] b]");
  ASSERT_EQ(f->kind, FormulaKind::kProbUntil);
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_EQ(u.op, Comparison::kGreaterEqual);
  EXPECT_DOUBLE_EQ(u.bound, 0.3);
  EXPECT_EQ(u.time_bound, Interval(0.0, 3.0));
  EXPECT_EQ(u.reward_bound, Interval(0.0, 23.0));
  EXPECT_EQ(u.lhs->kind, FormulaKind::kAtomic);
  EXPECT_EQ(u.rhs->kind, FormulaKind::kAtomic);
}

TEST(Parser, OmittedBoundsAreTrivial) {
  const auto f = parse_formula("P(<0.5)[a U b]");
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_TRUE(u.time_bound.is_trivial());
  EXPECT_TRUE(u.reward_bound.is_trivial());
}

TEST(Parser, SingleIntervalIsTimeBound) {
  const auto f = parse_formula("P(<0.5)[a U[0,10] b]");
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_EQ(u.time_bound, Interval(0.0, 10.0));
  EXPECT_TRUE(u.reward_bound.is_trivial());
}

TEST(Parser, TildeMeansInfinity) {
  const auto f = parse_formula("P(>0.1)[a U[0,~][0,5] b]");
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_TRUE(u.time_bound.is_upper_unbounded());
  EXPECT_DOUBLE_EQ(u.reward_bound.upper(), 5.0);
}

TEST(Parser, ParsesNextWithBothBounds) {
  const auto f = parse_formula("P(>0.8)[X[0,10][0,50] sleep]");
  ASSERT_EQ(f->kind, FormulaKind::kProbNext);
  const auto& x = static_cast<const ProbNextFormula&>(*f);
  EXPECT_EQ(x.time_bound, Interval(0.0, 10.0));
  EXPECT_EQ(x.reward_bound, Interval(0.0, 50.0));
  EXPECT_EQ(x.operand->kind, FormulaKind::kAtomic);
}

TEST(Parser, ParsesSteadyState) {
  const auto f = parse_formula("S(>0.5) busy");
  ASSERT_EQ(f->kind, FormulaKind::kSteady);
  const auto& s = static_cast<const SteadyFormula&>(*f);
  EXPECT_EQ(s.op, Comparison::kGreater);
  EXPECT_DOUBLE_EQ(s.bound, 0.5);
}

TEST(Parser, SteadyBindsToUnaryOperand) {
  const auto f = parse_formula("S(>0.5)(a || b)");
  const auto& s = static_cast<const SteadyFormula&>(*f);
  EXPECT_EQ(s.operand->kind, FormulaKind::kOr);
}

TEST(Parser, NestedProbabilityOperators) {
  const auto f = parse_formula("P(>0.8)[X (P(>0.5)[X[0,10][0,50] sleep])]");
  ASSERT_EQ(f->kind, FormulaKind::kProbNext);
  const auto& outer = static_cast<const ProbNextFormula&>(*f);
  EXPECT_EQ(outer.operand->kind, FormulaKind::kProbNext);
}

TEST(Parser, SupLikeIdentifiersAreNotKeywords) {
  // "Sup" begins with 'S' but must parse as an atomic proposition.
  const auto f = parse_formula("P(>0.1)[Sup U[0,500][0,3000] failed]");
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_EQ(static_cast<const AtomicFormula&>(*u.lhs).name, "Sup");
}

TEST(Parser, AtomNamedXCanBeUntilOperand) {
  // A leading X followed by U is an atom, not the next operator.
  const auto f = parse_formula("P(>0.1)[X U b]");
  ASSERT_EQ(f->kind, FormulaKind::kProbUntil);
  const auto& u = static_cast<const ProbUntilFormula&>(*f);
  EXPECT_EQ(static_cast<const AtomicFormula&>(*u.lhs).name, "X");
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parse_formula(""), ParseError);
  EXPECT_THROW(parse_formula("a ||"), ParseError);
  EXPECT_THROW(parse_formula("(a"), ParseError);
  EXPECT_THROW(parse_formula("P(>0.5) a"), ParseError);          // missing [...]
  EXPECT_THROW(parse_formula("P(>0.5)[a b]"), ParseError);       // missing U
  EXPECT_THROW(parse_formula("P(>1.5)[a U b]"), ParseError);     // probability > 1
  EXPECT_THROW(parse_formula("P(=0.5)[a U b]"), ParseError);     // bad comparison
  EXPECT_THROW(parse_formula("P(>0.5)[a U[3,1] b]"), ParseError);  // empty interval
  EXPECT_THROW(parse_formula("a b"), ParseError);                // trailing junk
}

/// The column parse_formula reports for `input`, or 0 when it parses.
std::size_t parse_error_column(const std::string& input) {
  try {
    parse_formula(input);
  } catch (const ParseError& error) {
    return error.column();
  }
  return 0;
}

// 100k nested negations used to recurse once per '!' and overflow the
// stack. The parser now stops at the first token past the cap.
TEST(Parser, DeepNegationIsRejectedAtTheCap) {
  const std::string input = std::string(100000, '!') + "TT";
  EXPECT_EQ(parse_error_column(input), kMaxFormulaDepth + 1);
}

TEST(Parser, DeepParenthesesAreRejectedAtTheCap) {
  const std::string input = std::string(100000, '(') + "a" + std::string(100000, ')');
  EXPECT_EQ(parse_error_column(input), kMaxFormulaDepth + 1);
}

// Operator chains nest without a '!' or '(' of their own: S(..) S(..) ...
// recurses through the S operand, and a || b || ... nests left operands.
TEST(Parser, DeepOperatorChainsAreRejected) {
  std::string steady;
  for (int i = 0; i < 100000; ++i) steady += "S(>0.5) ";
  EXPECT_GT(parse_error_column(steady + "a"), 0u);

  std::string chain = "a";
  for (int i = 0; i < 100000; ++i) chain += "||a";
  // Connective k sits at column 3k - 1 and its right operand at 3k + 1; the
  // operand of connective kMaxFormulaDepth would be the first leaf below
  // the cap.
  EXPECT_EQ(parse_error_column(chain), 3 * kMaxFormulaDepth + 1);
}

TEST(Parser, DeepNestingUpToTheCapParses) {
  const auto formula = parse_formula(std::string(kMaxFormulaDepth - 1, '!') + "TT");
  std::size_t height = 0;
  for (const Formula* node = formula.get(); node->kind == FormulaKind::kNot;
       node = static_cast<const NotFormula&>(*node).operand.get()) {
    ++height;
  }
  EXPECT_EQ(height, kMaxFormulaDepth - 1);
  EXPECT_EQ(parse_error_column(std::string(kMaxFormulaDepth, '!') + "TT"),
            kMaxFormulaDepth + 1);
}

TEST(Parser, ComparisonOperatorsAllParse) {
  EXPECT_EQ(static_cast<const SteadyFormula&>(*parse_formula("S(<0.5) a")).op,
            Comparison::kLess);
  EXPECT_EQ(static_cast<const SteadyFormula&>(*parse_formula("S(<=0.5) a")).op,
            Comparison::kLessEqual);
  EXPECT_EQ(static_cast<const SteadyFormula&>(*parse_formula("S(>0.5) a")).op,
            Comparison::kGreater);
  EXPECT_EQ(static_cast<const SteadyFormula&>(*parse_formula("S(>=0.5) a")).op,
            Comparison::kGreaterEqual);
}

TEST(Comparison, CompareImplementsAllOperators) {
  EXPECT_TRUE(compare(0.4, Comparison::kLess, 0.5));
  EXPECT_FALSE(compare(0.5, Comparison::kLess, 0.5));
  EXPECT_TRUE(compare(0.5, Comparison::kLessEqual, 0.5));
  EXPECT_TRUE(compare(0.6, Comparison::kGreater, 0.5));
  EXPECT_TRUE(compare(0.5, Comparison::kGreaterEqual, 0.5));
  EXPECT_FALSE(compare(0.4, Comparison::kGreaterEqual, 0.5));
}

}  // namespace
}  // namespace csrlmrm::logic
