// Pretty printer: output re-parses to a structurally identical formula.
#include "logic/printer.hpp"

#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "oracle/formula_equality.hpp"
#include "oracle/random_formula.hpp"

namespace csrlmrm::logic {
namespace {

/// Structural equality of formulas (recursive).
bool structurally_equal(const FormulaPtr& a, const FormulaPtr& b) {
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return true;
    case FormulaKind::kAtomic:
      return static_cast<const AtomicFormula&>(*a).name ==
             static_cast<const AtomicFormula&>(*b).name;
    case FormulaKind::kNot:
      return structurally_equal(static_cast<const NotFormula&>(*a).operand,
                                static_cast<const NotFormula&>(*b).operand);
    case FormulaKind::kOr: {
      const auto& la = static_cast<const OrFormula&>(*a);
      const auto& lb = static_cast<const OrFormula&>(*b);
      return structurally_equal(la.lhs, lb.lhs) && structurally_equal(la.rhs, lb.rhs);
    }
    case FormulaKind::kAnd: {
      const auto& la = static_cast<const AndFormula&>(*a);
      const auto& lb = static_cast<const AndFormula&>(*b);
      return structurally_equal(la.lhs, lb.lhs) && structurally_equal(la.rhs, lb.rhs);
    }
    case FormulaKind::kSteady: {
      const auto& sa = static_cast<const SteadyFormula&>(*a);
      const auto& sb = static_cast<const SteadyFormula&>(*b);
      return sa.op == sb.op && sa.bound == sb.bound &&
             structurally_equal(sa.operand, sb.operand);
    }
    case FormulaKind::kProbNext: {
      const auto& na = static_cast<const ProbNextFormula&>(*a);
      const auto& nb = static_cast<const ProbNextFormula&>(*b);
      return na.op == nb.op && na.bound == nb.bound && na.time_bound == nb.time_bound &&
             na.reward_bound == nb.reward_bound && structurally_equal(na.operand, nb.operand);
    }
    case FormulaKind::kProbUntil: {
      const auto& ua = static_cast<const ProbUntilFormula&>(*a);
      const auto& ub = static_cast<const ProbUntilFormula&>(*b);
      return ua.op == ub.op && ua.bound == ub.bound && ua.time_bound == ub.time_bound &&
             ua.reward_bound == ub.reward_bound && structurally_equal(ua.lhs, ub.lhs) &&
             structurally_equal(ua.rhs, ub.rhs);
    }
    case FormulaKind::kExpectedReward: {
      const auto& ra = static_cast<const ExpectedRewardFormula&>(*a);
      const auto& rb = static_cast<const ExpectedRewardFormula&>(*b);
      if (ra.op != rb.op || ra.bound != rb.bound || ra.query != rb.query) return false;
      if (ra.query == RewardQuery::kCumulative) return ra.time_horizon == rb.time_horizon;
      if (ra.query == RewardQuery::kReachability) {
        return structurally_equal(ra.operand, rb.operand);
      }
      return true;
    }
  }
  return false;
}

class PrinterRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PrinterRoundTrip, ParsePrintParseIsIdentity) {
  const FormulaPtr original = parse_formula(GetParam());
  const std::string printed = to_string(original);
  const FormulaPtr reparsed = parse_formula(printed);
  EXPECT_TRUE(structurally_equal(original, reparsed))
      << "input: " << GetParam() << "\nprinted: " << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, PrinterRoundTrip,
    ::testing::Values(
        "TT", "FF", "busy", "!a", "a || b", "a && b", "!a && (b || c)",
        "S(>0.5) busy", "S(<=0.1)(a || b)",
        "P(>0.1)[a U b]", "P(>=0.3)[a U[0,3][0,23] b]",
        "P(<0.5)[TT U[0,600][0,50] busy]", "P(>0.8)[X sleep]",
        "P(>0.8)[X[0,10][0,50] sleep]",
        "P(>0.1)[Sup U[0,500][0,3000] failed]",
        "P(>0.8)[X (P(>0.5)[X[0,10][0,50] sleep])]",
        "S(>0.3)(P(>0.1)[a U[0,1][0,2] b])",
        "P(>0.1)[a U[0,~][0,5] b]",
        "P(>0.1)[(busy || idle) U[0,10][0,50] sleep]",
        "R(<= 25)[C[0,10]]", "R(<100)[F failed]", "R(>=3.2)[S]",
        "R(<5)[F (a && P(>0.1)[b U c])]"));

TEST(Printer, AppendixFormulaPrintsRecognizably) {
  const auto f = parse_formula("P(>= 0.3) [a U[0,3][0,23] b]");
  EXPECT_EQ(to_string(f), "P(>= 0.3) [a U[0,3][0,23] b]");
}

TEST(Printer, TrivialBoundsAreOmitted) {
  const auto f = parse_formula("P(<0.5)[a U b]");
  EXPECT_EQ(to_string(f), "P(< 0.5) [a U b]");
}

TEST(Printer, RejectsNullFormula) {
  EXPECT_THROW(to_string(nullptr), std::invalid_argument);
}

// Property form of the round trip over the seeded generator: every random
// formula (arbitrary bound shapes, shortest-form numeric literals, nesting)
// must satisfy parse(print(f)) == f under logic::equal — the same structural
// equality the plan compiler's CSE pass keys on. 200 seeds.
class RandomRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomRoundTrip, ParsePrintParseIsIdentity) {
  const FormulaPtr original = models::make_random_formula(GetParam());
  const std::string printed = to_string(original);
  FormulaPtr reparsed;
  ASSERT_NO_THROW(reparsed = parse_formula(printed)) << "printed: " << printed;
  EXPECT_TRUE(equal(original, reparsed)) << "printed: " << printed;
  // Printing is idempotent: the reparsed tree prints to the same text.
  EXPECT_EQ(to_string(reparsed), printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTrip, ::testing::Range(1u, 201u));

// The same property under hostile numerics: deep nesting plus bound
// magnitudes that force format_number into exponent notation (tiny rewards)
// and many-digit shortest forms (huge horizons).
class WildRandomRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WildRandomRoundTrip, ParsePrintParseIsIdentity) {
  models::RandomFormulaConfig config;
  config.max_depth = 6;
  config.probabilistic_probability = 0.25;
  config.max_time_bound = 1e9;
  config.max_reward_bound = 1e-6;
  const FormulaPtr original = models::make_random_formula(GetParam(), config);
  const std::string printed = to_string(original);
  FormulaPtr reparsed;
  ASSERT_NO_THROW(reparsed = parse_formula(printed)) << "printed: " << printed;
  EXPECT_TRUE(equal(original, reparsed)) << "printed: " << printed;
  EXPECT_EQ(to_string(reparsed), printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WildRandomRoundTrip, ::testing::Range(1u, 51u));

}  // namespace
}  // namespace csrlmrm::logic
