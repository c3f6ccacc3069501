// TimedPath semantics (Definition 3.3), pinned to the thesis's worked
// Example 3.2 on the WaveLAN model.
#include "oracle/path.hpp"

#include <gtest/gtest.h>

#include "models/wavelan.hpp"

namespace csrlmrm::core {
namespace {

TimedPath example_32_path() {
  // sigma = 1 -10-> 2 -4-> 3 -2-> 4 -3.75-> 3 -1-> 5 -2.5-> 3 -5-> ...
  // (thesis 1-based states; 0-based here).
  return TimedPath({{models::kWavelanOff, 10.0},
                    {models::kWavelanSleep, 4.0},
                    {models::kWavelanIdle, 2.0},
                    {models::kWavelanReceive, 3.75},
                    {models::kWavelanIdle, 1.0},
                    {models::kWavelanTransmit, 2.5},
                    {models::kWavelanIdle, 5.0}});
}

TEST(TimedPath, IndexingMatchesDefinition) {
  const TimedPath path = example_32_path();
  EXPECT_EQ(path.length(), 7u);
  EXPECT_EQ(path.state(0), models::kWavelanOff);
  EXPECT_EQ(path.state(5), models::kWavelanTransmit);
  EXPECT_DOUBLE_EQ(path.residence_time(3), 3.75);
  EXPECT_THROW(path.state(7), std::out_of_range);
}

TEST(TimedPath, StateAtMatchesExample32) {
  // sigma@21.75 = sigma[5] = transmit (cumulative 20.75 < 21.75 <= 23.25).
  EXPECT_EQ(example_32_path().state_at(21.75), models::kWavelanTransmit);
}

TEST(TimedPath, StateAtBoundaryBelongsToEarlierState) {
  // At exactly the cumulative boundary the earlier state is occupied
  // (Definition 3.3 uses sum_{j<=i} t_j >= t).
  EXPECT_EQ(example_32_path().state_at(10.0), models::kWavelanOff);
  EXPECT_EQ(example_32_path().state_at(10.0 + 1e-9), models::kWavelanSleep);
}

TEST(TimedPath, StateAtZeroIsInitialState) {
  EXPECT_EQ(example_32_path().state_at(0.0), models::kWavelanOff);
}

TEST(TimedPath, StateAtBeyondPrefixThrows) {
  EXPECT_THROW(example_32_path().state_at(30.0), std::out_of_range);
  EXPECT_THROW(example_32_path().state_at(-1.0), std::out_of_range);
}

TEST(TimedPath, AccumulatedRewardMatchesExample32) {
  // y_sigma(21.75) = 11983.25 mWs + 1.13715 mJ = 11984.38715 (thesis).
  const core::Mrm model = models::make_wavelan();
  EXPECT_NEAR(example_32_path().accumulated_reward(model, 21.75), 11984.38715, 1e-9);
}

TEST(TimedPath, AccumulatedRewardAtZeroIsZero) {
  const core::Mrm model = models::make_wavelan();
  EXPECT_DOUBLE_EQ(example_32_path().accumulated_reward(model, 0.0), 0.0);
}

TEST(TimedPath, AccumulatedRewardCountsImpulseOnlyAfterTransition) {
  const core::Mrm model = models::make_wavelan();
  const TimedPath path = example_32_path();
  // Just before leaving off: pure residence reward (rho(off) = 0).
  EXPECT_DOUBLE_EQ(path.accumulated_reward(model, 10.0), 0.0);
  // Just after: the off->sleep impulse (0.02) has been paid.
  const double later = path.accumulated_reward(model, 10.5);
  EXPECT_NEAR(later, 0.02 + 80.0 * 0.5, 1e-12);
}

TEST(TimedPath, FinitePathEndsWithInfiniteResidence) {
  const TimedPath path({{0, 1.0}, {1, kInfiniteResidence}});
  EXPECT_TRUE(path.is_finite_path());
  EXPECT_FALSE(example_32_path().is_finite_path());
  EXPECT_EQ(path.state_at(1e12), 1u);
}

TEST(TimedPath, RejectsMalformedSteps) {
  EXPECT_THROW(TimedPath({}), std::invalid_argument);
  EXPECT_THROW(TimedPath({{0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(TimedPath({{0, -1.0}}), std::invalid_argument);
  // Infinite residence only allowed at the end.
  EXPECT_THROW(TimedPath({{0, kInfiniteResidence}, {1, 1.0}}), std::invalid_argument);
}

TEST(TimedPath, AccumulatedRewardRejectsNonTransitionSteps) {
  const core::Mrm model = models::make_wavelan();
  // off -> idle is not a transition of the WaveLAN model.
  const TimedPath bogus({{models::kWavelanOff, 1.0}, {models::kWavelanIdle, 1.0}});
  EXPECT_THROW(bogus.accumulated_reward(model, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::core
