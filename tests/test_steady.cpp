// Steady-state operator machinery (sections 3.7/4.2), pinned to the worked
// Example 3.5 of the thesis.
#include "checker/steady.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/vector_ops.hpp"
#include "models/wavelan.hpp"
#include "oracle/ctmc_measures.hpp"
#include "oracle/linalg_reference.hpp"

namespace csrlmrm::checker {
namespace {

/// The CTMC of Figure 3.2 (0-based: s1..s5 -> 0..4). Rates chosen to yield
/// the jump probabilities of Example 3.5: P(s1,DiamondB1) = 4/7 and
/// pi^B1(s4) = 2/3.
core::Mrm example_35() {
  core::RateMatrixBuilder rates(5);
  rates.add(0, 1, 2.0);  // s1 -> s2
  rates.add(0, 4, 1.0);  // s1 -> s5
  rates.add(1, 0, 1.0);  // s2 -> s1
  rates.add(1, 2, 2.0);  // s2 -> s3
  rates.add(2, 3, 2.0);  // s3 -> s4
  rates.add(3, 2, 1.0);  // s4 -> s3
  core::Labeling labels(5);
  labels.add(3, "b");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), std::vector<double>(5, 0.0));
}

TEST(Steady, Example35TargetProbabilityIsEightTwentyFirsts) {
  const core::Mrm model = example_35();
  const auto pi = steady_state_probability_of_set(model, model.labels().states_with("b"));
  EXPECT_NEAR(pi[0], 8.0 / 21.0, 1e-9);  // s1 (thesis: 8/21, so s1 |= S_{>=0.3}(b))
}

TEST(Steady, Example35DistributionFromS1) {
  const core::Mrm model = example_35();
  const auto pi = steady_state_distribution(model, 0);
  // Reaches B1 = {s3,s4} with probability 4/7 (split 1/3 : 2/3) and the
  // absorbing s5 with probability 3/7.
  EXPECT_NEAR(pi[2], 4.0 / 7.0 * 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[3], 4.0 / 7.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[4], 3.0 / 7.0, 1e-9);
  EXPECT_NEAR(pi[0], 0.0, 1e-12);  // transient states vanish in the long run
  EXPECT_NEAR(pi[1], 0.0, 1e-12);
  EXPECT_TRUE(linalg::is_distribution(pi, 1e-9));
}

TEST(Steady, DistributionFromInsideABsccStaysThere) {
  const core::Mrm model = example_35();
  const auto pi = steady_state_distribution(model, 2);  // s3 in B1
  EXPECT_NEAR(pi[2], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[3], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[4], 0.0, 1e-12);
}

TEST(Steady, StronglyConnectedModelIgnoresStartState) {
  const core::Mrm model = models::make_wavelan();
  const auto from0 = steady_state_distribution(model, 0);
  const auto from3 = steady_state_distribution(model, 3);
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(from0[s], from3[s], 1e-9);
  EXPECT_TRUE(linalg::is_distribution(from0, 1e-9));
}

TEST(Steady, WavelanStationarityBalanceHolds) {
  // pi Q = 0: verify the returned vector satisfies global balance.
  const core::Mrm model = models::make_wavelan();
  const auto pi = steady_state_distribution(model, 0);
  const auto flow = left_multiply(core::generator(model.rates()), pi);
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(flow[s], 0.0, 1e-9) << "state " << s;
}

TEST(Steady, SetProbabilityIsSumOverStates) {
  const core::Mrm model = models::make_wavelan();
  const auto pi = steady_state_distribution(model, 0);
  const auto busy = steady_state_probability_of_set(model, model.labels().states_with("busy"));
  EXPECT_NEAR(busy[0], pi[3] + pi[4], 1e-9);
}

TEST(Steady, FullSetHasProbabilityOne) {
  const core::Mrm model = example_35();
  const auto pi = steady_state_probability_of_set(model, std::vector<bool>(5, true));
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(pi[s], 1.0, 1e-9);
}

TEST(Steady, EmptySetHasProbabilityZero) {
  const core::Mrm model = example_35();
  const auto pi = steady_state_probability_of_set(model, std::vector<bool>(5, false));
  for (std::size_t s = 0; s < 5; ++s) EXPECT_DOUBLE_EQ(pi[s], 0.0);
}

TEST(Steady, AbsorbingStateIsItsOwnLongRun) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {0.0, 0.0});
  const auto pi = steady_state_distribution(model, 0);
  EXPECT_NEAR(pi[0], 0.0, 1e-12);
  EXPECT_NEAR(pi[1], 1.0, 1e-12);
}

/// A BSCC {a, b} = {2, 3} with pi(a) = 1e-9 / (1 + 1e-9) behind a slowly
/// mixing transient cycle 0 <-> 1 that leaves only through 1 -> a at rate
/// 1e-3. States a and b earn reward 1e6, so the long-run gain is 1e6.
core::Mrm tiny_mass_behind_slow_cycle() {
  core::RateMatrixBuilder rates(4);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  rates.add(1, 2, 1e-3);
  rates.add(2, 3, 1.0);
  rates.add(3, 2, 1e-9);
  return core::Mrm(core::Ctmc(rates.build(), core::Labeling(4)),
                   {0.0, 0.0, 1e6, 1e6});
}

// Gauss-Seidel on the cycle contracts by 1/1.001 a sweep, so stopping at a
// step below 1e-12 leaves about 1e-9 relative in a value of order 1: the
// long-run measures are held to 1e-8 relative, for a BSCC weight of 1e-9
// (pi(a)) and of 1e6 (the gain) alike.
TEST(Steady, TinyAndLargeBsccWeightsKeepTheirRelativeAccuracy) {
  const double exact = 1e-9 / (1.0 + 1e-9);
  const core::Mrm model = tiny_mass_behind_slow_cycle();
  const auto pi = steady_state_probability_of_set(model, {false, false, true, false});
  const auto gain = steady_state_expectation(model, model.state_rewards());
  for (core::StateIndex s = 0; s < 4; ++s) {
    const double oracle = steady_state_distribution(model, s)[2];
    EXPECT_LE(std::abs(pi[s] - oracle), 1e-8 * oracle) << "s=" << s << " pi=" << pi[s];
    EXPECT_LE(std::abs(pi[s] - exact), 1e-8 * exact) << "s=" << s << " pi=" << pi[s];
    EXPECT_LE(std::abs(gain[s] - 1e6), 1e-8 * 1e6) << "s=" << s << " gain=" << gain[s];
  }
}

TEST(Steady, RejectsBadArguments) {
  const core::Mrm model = example_35();
  EXPECT_THROW(steady_state_probability_of_set(model, std::vector<bool>(3, true)),
               std::invalid_argument);
  EXPECT_THROW(steady_state_distribution(model, 99), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::checker
