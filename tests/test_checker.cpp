// ModelChecker end-to-end: Algorithm 4.1 over parsed CSRL formulas.
#include "checker/sat.hpp"

#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "models/wavelan.hpp"
#include "oracle/checker_accessors.hpp"

namespace csrlmrm::checker {
namespace {

class CheckerOnWavelan : public ::testing::Test {
 protected:
  CheckerOnWavelan() : model_(models::make_wavelan()), checker_(model_, options()) {}

  static CheckerOptions options() {
    CheckerOptions o;
    o.uniformization.truncation_probability = 1e-18;
    return o;
  }

  std::vector<bool> sat(const std::string& formula) {
    return checker_.satisfaction_set(logic::parse_formula(formula));
  }

  core::Mrm model_;
  ModelChecker checker_;
};

TEST_F(CheckerOnWavelan, ConstantsAndAtoms) {
  EXPECT_EQ(sat("TT"), std::vector<bool>(5, true));
  EXPECT_EQ(sat("FF"), std::vector<bool>(5, false));
  EXPECT_EQ(sat("busy"), (std::vector<bool>{false, false, false, true, true}));
  EXPECT_EQ(sat("idle"), (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(sat("nonexistent"), std::vector<bool>(5, false));
}

TEST_F(CheckerOnWavelan, BooleanConnectives) {
  EXPECT_EQ(sat("!busy"), (std::vector<bool>{true, true, true, false, false}));
  EXPECT_EQ(sat("busy || idle"), (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(sat("busy && transmit"), (std::vector<bool>{false, false, false, false, true}));
  EXPECT_EQ(sat("!(busy || idle) && !off"), (std::vector<bool>{false, true, false, false, false}));
}

TEST_F(CheckerOnWavelan, SteadyStateOperator) {
  // The WaveLAN chain is irreducible: either every state satisfies an
  // S-formula or none does.
  const auto yes = sat("S(>0.0001) busy");
  const auto no = sat("S(>0.9) busy");
  EXPECT_EQ(yes, std::vector<bool>(5, true));
  EXPECT_EQ(no, std::vector<bool>(5, false));
}

TEST_F(CheckerOnWavelan, NextOperator) {
  // From receive/transmit the only successor is idle.
  const auto s = sat("P(>=1) [X idle]");
  EXPECT_TRUE(s[models::kWavelanReceive]);
  EXPECT_TRUE(s[models::kWavelanTransmit]);
  EXPECT_FALSE(s[models::kWavelanIdle]);
  EXPECT_FALSE(s[models::kWavelanOff]);
}

TEST_F(CheckerOnWavelan, UnboundedUntilOperator) {
  // Irreducible chain: busy is eventually reached from everywhere.
  EXPECT_EQ(sat("P(>0.99)[TT U busy]"), std::vector<bool>(5, true));
  // But not while staying idle from off.
  const auto s = sat("P(>0.01)[idle U busy]");
  EXPECT_FALSE(s[models::kWavelanOff]);
  EXPECT_TRUE(s[models::kWavelanIdle]);
  EXPECT_TRUE(s[models::kWavelanReceive]);  // Psi-state satisfies immediately
}

TEST_F(CheckerOnWavelan, RewardBoundedUntilExample36) {
  // P(3, idle U^[0,2]_[0,2000] busy) = 0.15789: satisfies > 0.1, not > 0.2.
  const auto lo = sat("P(>0.1)[idle U[0,2][0,2000] busy]");
  EXPECT_TRUE(lo[models::kWavelanIdle]);
  const auto hi = sat("P(>0.2)[idle U[0,2][0,2000] busy]");
  EXPECT_FALSE(hi[models::kWavelanIdle]);
}

TEST_F(CheckerOnWavelan, NestedFormulasEvaluate) {
  const auto s = sat("P(>0.5)[X (P(>=1)[X idle])]");
  // From idle, successors receive/transmit both satisfy P(>=1)[X idle]
  // with combined jump probability (1.5+0.75)/14.25 < 0.5 -> idle fails;
  // sleep's successor set {off, idle}: idle does not satisfy the inner
  // formula (jump prob to idle is 12/14.25 < 1)... compute: inner Sat =
  // {receive, transmit}; from idle P = 2.25/14.25 ~ 0.158 < 0.5.
  EXPECT_FALSE(s[models::kWavelanIdle]);
  EXPECT_FALSE(s[models::kWavelanOff]);
}

TEST_F(CheckerOnWavelan, SatisfactionIsMemoizedPerNode) {
  const auto formula = logic::parse_formula("S(>0.0001) busy");
  const auto& first = checker_.satisfaction_set(formula);
  const auto& second = checker_.satisfaction_set(formula);
  EXPECT_EQ(&first, &second);  // same cached vector
}

TEST_F(CheckerOnWavelan, SatisfiesChecksSingleState) {
  const auto formula = logic::parse_formula("busy");
  EXPECT_TRUE(checker_.satisfies(models::kWavelanReceive, formula));
  EXPECT_FALSE(checker_.satisfies(models::kWavelanIdle, formula));
  EXPECT_THROW(checker_.satisfies(17, formula), std::out_of_range);
}

TEST_F(CheckerOnWavelan, PathProbabilitiesRejectsNonPathNode) {
  EXPECT_THROW(checker_.path_probabilities(logic::parse_formula("busy")),
               std::invalid_argument);
  EXPECT_THROW(steady_probabilities(checker_, logic::parse_formula("busy")),
               std::invalid_argument);
}

TEST_F(CheckerOnWavelan, DiscretizationMethodIsSelectable) {
  CheckerOptions o;
  o.until_method = UntilMethod::kDiscretization;
  o.discretization.step = 0.015625;  // 1/64 > 1/14.25? no: 0.0156*14.25 = 0.22 < 1 ok
  ModelChecker discretizing(model_, o);
  // Use a reward bound that is a multiple of the impulse grid: impulses are
  // multiples of 5e-5, not of d -> the engine must refuse.
  EXPECT_THROW(
      discretizing.path_probabilities(logic::parse_formula("P(>0.1)[idle U[0,2][0,2000] busy]")),
      std::invalid_argument);
}

TEST(Checker, HandlesModelWithTrapStates) {
  // Two-state model where the b-state is an absorbing trap.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  core::Labeling labels(2);
  labels.add(1, "b");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)), {1.0, 0.0});
  ModelChecker checker(model);
  // P(0, TT U^[0,1]_[0,10] b) = 1 - e^{-1} ~ 0.632 (reward bound not binding).
  const auto yes = checker.satisfaction_set(logic::parse_formula("P(>=0.5)[TT U[0,1][0,10] b]"));
  EXPECT_TRUE(yes[0]);
  EXPECT_TRUE(yes[1]);
  const auto no = checker.satisfaction_set(logic::parse_formula("P(>=0.7)[TT U[0,1][0,10] b]"));
  EXPECT_FALSE(no[0]);
  EXPECT_TRUE(no[1]);
}

}  // namespace
}  // namespace csrlmrm::checker
