// Expected hitting times and costs (MTTF-style measures) against closed
// forms and simulation-grade sanity.
#include "checker/absorption.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/tmr.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::checker {
namespace {

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

TEST(ExpectedTimeToHit, ExponentialStageIsOneOverMu) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.5);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const auto times = expected_time_to_hit(model, mask(2, {1}));
  EXPECT_NEAR(times[0], 1.0 / 2.5, 1e-10);
  EXPECT_DOUBLE_EQ(times[1], 0.0);
}

TEST(ExpectedTimeToHit, ErlangChainSumsStageMeans) {
  // 0 -> 1 -> 2 -> 3 with rates 1, 2, 4: E[T] = 1 + 1/2 + 1/4.
  core::RateMatrixBuilder rates(4);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 2.0);
  rates.add(2, 3, 4.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(4)),
                        std::vector<double>(4, 0.0));
  const auto times = expected_time_to_hit(model, mask(4, {3}));
  EXPECT_NEAR(times[0], 1.75, 1e-10);
  EXPECT_NEAR(times[1], 0.75, 1e-10);
  EXPECT_NEAR(times[2], 0.25, 1e-10);
}

TEST(ExpectedTimeToHit, CycleWithEscapeMatchesFirstStepAnalysis) {
  // 0 <-> 1, 1 -> 2 (target). From 1: E1 = 1/(b+c) + b/(b+c) E0;
  // E0 = 1/a + E1.
  const double a = 2.0;
  const double b = 1.0;
  const double c = 3.0;
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, a);
  rates.add(1, 0, b);
  rates.add(1, 2, c);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto times = expected_time_to_hit(model, mask(3, {2}));
  // Solve by hand: E1 = 1/(b+c) + b/(b+c)(1/a + E1) ->
  // E1 (1 - b/(b+c)) = 1/(b+c) + b/(a(b+c))
  const double e1 = (1.0 / (b + c) + b / (a * (b + c))) / (1.0 - b / (b + c));
  EXPECT_NEAR(times[1], e1, 1e-10);
  EXPECT_NEAR(times[0], 1.0 / a + e1, 1e-10);
}

TEST(ExpectedTimeToHit, EscapableStatesAreInfinite) {
  // 0 can drift to the absorbing trap 2 instead of the target 1.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(0, 2, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto times = expected_time_to_hit(model, mask(3, {1}));
  EXPECT_TRUE(std::isinf(times[0]));
  EXPECT_DOUBLE_EQ(times[1], 0.0);
  EXPECT_TRUE(std::isinf(times[2]));
}

TEST(ExpectedTimeToHit, TmrTimeToFailureIsDecades) {
  // MTTF of the TMR system: failures are rare and repairs fast, so the mean
  // time to the failed set is orders of magnitude beyond the repair scale.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto times = expected_time_to_hit(model, model.labels().states_with("failed"));
  EXPECT_GT(times[0], 5000.0);   // hours; voter MTTF alone is 10000 h
  EXPECT_LT(times[0], 20000.0);
  EXPECT_GT(times[0], times[1]);  // a degraded start fails sooner
}

TEST(ExpectedRewardToHit, CountsRateAndImpulseRewards) {
  // 0 -> 1 at mu, rho(0) = c, impulse iota: E[Y] = c/mu + iota.
  const double mu = 2.0;
  const double c = 3.0;
  const double iota = 0.5;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::ImpulseRewardsBuilder impulses(2);
  impulses.add(0, 1, iota);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {c, 0.0},
                        impulses.build());
  const auto cost = expected_reward_to_hit(model, mask(2, {1}));
  EXPECT_NEAR(cost[0], c / mu + iota, 1e-10);
}

TEST(ExpectedRewardToHit, WavelanEnergyUntilBusy) {
  // Energy spent until the modem first becomes busy, from idle: dominated
  // by idle dwell plus the entry impulse; from off it also pays the
  // off->sleep->idle trail. Sanity: strictly larger from off than from idle.
  const core::Mrm model = models::make_wavelan();
  const auto cost = expected_reward_to_hit(model, model.labels().states_with("busy"));
  EXPECT_GT(cost[models::kWavelanOff], cost[models::kWavelanIdle]);
  EXPECT_GT(cost[models::kWavelanIdle], 0.0);
  EXPECT_DOUBLE_EQ(cost[models::kWavelanReceive], 0.0);
}

TEST(ExpectedRewardToHit, ZeroRewardModelCostsNothing) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const auto cost = expected_reward_to_hit(model, mask(2, {1}));
  EXPECT_DOUBLE_EQ(cost[0], 0.0);
}

TEST(ExpectedTimeToHit, ConsistentWithRewardUnderUnitRates) {
  // With rho = 1 everywhere and no impulses, expected reward = expected time.
  const core::Mrm base = models::make_wavelan();
  const core::Mrm unit(base.ctmc(), std::vector<double>(5, 1.0));
  const auto target = unit.labels().states_with("sleep");
  const auto times = expected_time_to_hit(unit, target);
  const auto cost = expected_reward_to_hit(unit, target);
  for (std::size_t s = 0; s < 5; ++s) EXPECT_NEAR(times[s], cost[s], 1e-9) << "state " << s;
}

TEST(ExpectedTimeToHit, RejectsBadInput) {
  const core::Mrm model = models::make_wavelan();
  EXPECT_THROW(expected_time_to_hit(model, std::vector<bool>(3, true)),
               std::invalid_argument);
  // An empty target is reached with probability 0: +infinity everywhere.
  for (const double time : expected_time_to_hit(model, std::vector<bool>(5, false))) {
    EXPECT_TRUE(std::isinf(time) && time > 0.0);
  }
}

}  // namespace
}  // namespace csrlmrm::checker
