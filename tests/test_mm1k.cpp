// The energy-aware M/M/1/K queue model: structure and classical queueing
// closed forms through the checker.
#include "models/mm1k.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "checker/sat.hpp"
#include "checker/steady.hpp"
#include "logic/parser.hpp"
#include "oracle/ctmc_measures.hpp"

namespace csrlmrm::models {
namespace {

TEST(Mm1k, StructureMatchesBirthDeathChain) {
  const core::Mrm model = make_mm1k({4, 0.8, 1.0, 1.0, 5.0, 2.0});
  ASSERT_EQ(model.num_states(), 5u);
  EXPECT_DOUBLE_EQ(model.rates().rate(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(model.rates().rate(3, 4), 0.8);
  EXPECT_DOUBLE_EQ(model.rates().rate(4, 3), 1.0);
  EXPECT_DOUBLE_EQ(model.rates().rate(4, 0), 0.0);
  // The full buffer drops arrivals: no outgoing arrival edge.
  EXPECT_DOUBLE_EQ(model.rates().exit_rate(4), 1.0);
}

TEST(Mm1k, LabelsDescribeOccupancy) {
  const core::Mrm model = make_mm1k({4, 0.8, 1.0, 1.0, 5.0, 2.0});
  EXPECT_TRUE(model.labels().has(0, "empty"));
  EXPECT_FALSE(model.labels().has(0, "busy"));
  EXPECT_TRUE(model.labels().has(1, "busy"));
  EXPECT_TRUE(model.labels().has(4, "full"));
  EXPECT_FALSE(model.labels().has(3, "full"));
  EXPECT_TRUE(model.labels().has(2, "halfFull"));
  EXPECT_FALSE(model.labels().has(1, "halfFull"));
}

TEST(Mm1k, WakeupImpulseOnlyOnFirstArrival) {
  const core::Mrm model = make_mm1k({3, 0.8, 1.0, 1.0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(model.impulse_reward(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(model.impulse_reward(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(model.impulse_reward(1, 0), 0.0);
}

TEST(Mm1k, SteadyStateMatchesTextbookFormula) {
  // M/M/1/K: pi_k = rho^k (1-rho) / (1 - rho^{K+1}).
  const double lambda = 0.6;
  const double mu = 1.0;
  const unsigned k = 5;
  const core::Mrm model = make_mm1k({k, lambda, mu, 1.0, 5.0, 2.0});
  const auto pi = checker::steady_state_distribution(model, 0);
  const double rho = lambda / mu;
  const double normalizer = (1.0 - std::pow(rho, k + 1)) / (1.0 - rho);
  for (unsigned jobs = 0; jobs <= k; ++jobs) {
    EXPECT_NEAR(pi[jobs], std::pow(rho, jobs) / normalizer, 1e-9) << "jobs=" << jobs;
  }
}

TEST(Mm1k, BlockingProbabilityThroughTheLogic) {
  const double lambda = 0.9;
  const double mu = 1.0;
  const unsigned k = 3;
  const core::Mrm model = make_mm1k({k, lambda, mu, 1.0, 5.0, 2.0});
  const double rho = lambda / mu;
  const double pi_full =
      std::pow(rho, k) * (1.0 - rho) / (1.0 - std::pow(rho, k + 1));
  checker::ModelChecker checker(model);
  // The steady-state formula brackets the true blocking probability.
  const std::string above = "S(>" + std::to_string(pi_full * 0.99) + ") full";
  const std::string below = "S(>" + std::to_string(pi_full * 1.01) + ") full";
  EXPECT_TRUE(checker.satisfies(0, logic::parse_formula(above)));
  EXPECT_FALSE(checker.satisfies(0, logic::parse_formula(below)));
}

TEST(Mm1k, RejectsBadConfiguration) {
  EXPECT_THROW(make_mm1k({0, 1.0, 1.0, 1.0, 1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(make_mm1k({3, 0.0, 1.0, 1.0, 1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(make_mm1k({3, 1.0, -1.0, 1.0, 1.0, 0.0}), std::invalid_argument);
}

TEST(Mm1k, ZeroWakeupEnergyMeansNoImpulses) {
  const core::Mrm model = make_mm1k({3, 1.0, 1.0, 1.0, 5.0, 0.0});
  EXPECT_FALSE(model.has_impulse_rewards());
}

}  // namespace
}  // namespace csrlmrm::models
