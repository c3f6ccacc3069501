// The R-operator extension (expected-reward bounds in the logic):
// parsing, printing, and checking against the underlying measures.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/absorption.hpp"
#include "checker/performability.hpp"
#include "checker/sat.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "models/mm1k.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"
#include "oracle/checker_accessors.hpp"

namespace csrlmrm {
namespace {

using logic::FormulaKind;
using logic::RewardQuery;

TEST(RewardOperator, ParsesCumulativeQuery) {
  const auto f = logic::parse_formula("R(<= 25)[C[0,10]]");
  ASSERT_EQ(f->kind, FormulaKind::kExpectedReward);
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kCumulative);
  EXPECT_DOUBLE_EQ(node.bound, 25.0);
  EXPECT_DOUBLE_EQ(node.time_horizon, 10.0);
}

TEST(RewardOperator, ParsesReachabilityQuery) {
  const auto f = logic::parse_formula("R(<100)[F failed]");
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kReachability);
  EXPECT_EQ(node.operand->kind, FormulaKind::kAtomic);
}

TEST(RewardOperator, ParsesLongRunQuery) {
  const auto f = logic::parse_formula("R(>=3.2)[S]");
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kLongRun);
  EXPECT_DOUBLE_EQ(node.bound, 3.2);
}

TEST(RewardOperator, ThresholdMayExceedOne) {
  // Unlike P/S operators, reward thresholds are unbounded.
  EXPECT_NO_THROW(logic::parse_formula("R(<1000)[S]"));
  EXPECT_THROW(logic::parse_formula("P(<1000)[a U b]"), logic::ParseError);
}

TEST(RewardOperator, RejectsMalformedQueries) {
  EXPECT_THROW(logic::parse_formula("R(<5)[C]"), logic::ParseError);       // missing horizon
  EXPECT_THROW(logic::parse_formula("R(<5)[C[1,2]]"), logic::ParseError);  // not [0,t]
  EXPECT_THROW(logic::parse_formula("R(<5)[G a]"), logic::ParseError);     // unknown query
  EXPECT_THROW(logic::parse_formula("R(<5) a"), logic::ParseError);        // missing [...]
}

TEST(RewardOperator, PrintsAndReparses) {
  for (const char* text :
       {"R(<= 25) [C[0,10]]", "R(< 100) [F failed]", "R(>= 3.2) [S]",
        "R(> 0.5) [F (a || b)]"}) {
    const auto f = logic::parse_formula(text);
    EXPECT_EQ(logic::to_string(f), text);
  }
}

TEST(RewardOperator, RIsStillAnOrdinaryAtomElsewhere) {
  const auto f = logic::parse_formula("R || busy");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
}

TEST(RewardOperator, CumulativeCheckMatchesMeasure) {
  const core::Mrm model = models::make_mm1k({4, 0.7, 1.0, 1.0, 5.0, 2.0});
  checker::ModelChecker checker(model);
  const double expected = checker::expected_accumulated_reward(model, 0, 5.0);
  const auto low = logic::parse_formula("R(<=" + std::to_string(expected + 0.01) + ")[C[0,5]]");
  const auto high = logic::parse_formula("R(<=" + std::to_string(expected - 0.01) + ")[C[0,5]]");
  EXPECT_TRUE(checker.satisfies(0, low));
  EXPECT_FALSE(checker.satisfies(0, high));
  const auto values = expected_rewards(checker, low);
  EXPECT_NEAR(values[0], expected, 1e-12);
}

TEST(RewardOperator, ReachabilityCheckHandlesInfinity) {
  // From a state that may escape the target, the expected reward is
  // +infinity and no finite upper bound is satisfied, while ">=" bounds are.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(0, 2, 1.0);
  core::Labeling labels(3);
  labels.add(1, "goal");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)),
                        std::vector<double>(3, 1.0));
  checker::ModelChecker checker(model);
  EXPECT_FALSE(checker.satisfies(0, logic::parse_formula("R(<1000000)[F goal]")));
  EXPECT_TRUE(checker.satisfies(0, logic::parse_formula("R(>1000000)[F goal]")));
  EXPECT_TRUE(checker.satisfies(1, logic::parse_formula("R(<=0)[F goal]")));
}

TEST(RewardOperator, LongRunCheckOnTmr) {
  // The TMR's long-run rate sits just above rho(allUp) = 8 (mostly all-up,
  // occasionally degraded, tiny repair-impulse flux).
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::ModelChecker checker(model);
  EXPECT_TRUE(checker.satisfies(0, logic::parse_formula("R(>8)[S]")));
  EXPECT_TRUE(checker.satisfies(0, logic::parse_formula("R(<8.2)[S]")));
}

TEST(RewardOperator, NestsInsideBooleanFormulas) {
  const core::Mrm model = models::make_wavelan();
  checker::ModelChecker checker(model);
  // Long-run power above 100 mW and eventually-busy almost surely.
  const auto f = logic::parse_formula("R(>100)[S] && P(>=0.99)[TT U busy]");
  EXPECT_TRUE(checker.satisfies(models::kWavelanIdle, f));
}

TEST(RewardOperator, ExpectedRewardsRejectsWrongNode) {
  const core::Mrm model = models::make_wavelan();
  checker::ModelChecker checker(model);
  EXPECT_THROW(expected_rewards(checker, logic::parse_formula("busy")),
               std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm
