// The bundled example models: structure, labels, and reward conventions.
#include <gtest/gtest.h>

#include <cmath>

#include "oracle/cellphone.hpp"
#include "oracle/random_mrm.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::models {
namespace {

TEST(WavelanModel, HasFiveStatesWithExpectedLabels) {
  const core::Mrm model = make_wavelan();
  ASSERT_EQ(model.num_states(), 5u);
  EXPECT_TRUE(model.labels().has(kWavelanOff, "off"));
  EXPECT_TRUE(model.labels().has(kWavelanReceive, "busy"));
  EXPECT_TRUE(model.labels().has(kWavelanTransmit, "busy"));
  EXPECT_FALSE(model.labels().has(kWavelanIdle, "busy"));
}

TEST(TmrModel, DefaultTmrMatchesTable52Structure) {
  const core::Mrm model = make_tmr(TmrConfig{});
  ASSERT_EQ(model.num_states(), 5u);  // 0..3 failed modules + voter down
  const auto vdown = tmr_voter_down_state(3);
  // Table 5.2 rates.
  EXPECT_DOUBLE_EQ(model.rates().rate(0, 1), 0.0004);
  EXPECT_DOUBLE_EQ(model.rates().rate(1, 0), 0.05);
  EXPECT_DOUBLE_EQ(model.rates().rate(0, vdown), 0.0001);
  EXPECT_DOUBLE_EQ(model.rates().rate(vdown, 0), 0.06);
}

TEST(TmrModel, LabelsFollowWorkingModuleCount) {
  const core::Mrm model = make_tmr(TmrConfig{});
  EXPECT_TRUE(model.labels().has(0, "3up"));
  EXPECT_TRUE(model.labels().has(0, "allUp"));
  EXPECT_TRUE(model.labels().has(0, "Sup"));
  EXPECT_TRUE(model.labels().has(1, "2up"));
  EXPECT_TRUE(model.labels().has(1, "Sup"));
  EXPECT_TRUE(model.labels().has(2, "1up"));
  EXPECT_TRUE(model.labels().has(2, "failed"));  // fewer than 2 working
  EXPECT_TRUE(model.labels().has(3, "0up"));
  EXPECT_TRUE(model.labels().has(3, "failed"));
  EXPECT_TRUE(model.labels().has(tmr_voter_down_state(3), "vdown"));
  EXPECT_TRUE(model.labels().has(tmr_voter_down_state(3), "failed"));
}

TEST(TmrModel, VariableModeScalesFailureRateWithWorkingModules) {
  TmrConfig config;
  config.variable_failure_rate = true;
  const core::Mrm model = make_tmr(config);
  EXPECT_DOUBLE_EQ(model.rates().rate(0, 1), 3 * 0.0004);  // Table 5.6
  EXPECT_DOUBLE_EQ(model.rates().rate(1, 2), 2 * 0.0004);
  EXPECT_DOUBLE_EQ(model.rates().rate(2, 3), 1 * 0.0004);
}

TEST(TmrModel, RepairsCarryImpulseRewards) {
  const core::Mrm model = make_tmr(TmrConfig{});
  EXPECT_DOUBLE_EQ(model.impulse_reward(1, 0), 2.5);
  EXPECT_DOUBLE_EQ(model.impulse_reward(tmr_voter_down_state(3), 0), 5.0);
  EXPECT_DOUBLE_EQ(model.impulse_reward(0, 1), 0.0);  // failures are free
}

TEST(TmrModel, RewardsRiseWithDegradation) {
  // The Tables 5.3/5.4 calibration: rho(k failed) = 8 + 2k.
  const core::Mrm model = make_tmr(TmrConfig{});
  EXPECT_DOUBLE_EQ(model.state_reward(0), 8.0);
  EXPECT_DOUBLE_EQ(model.state_reward(1), 10.0);
  EXPECT_DOUBLE_EQ(model.state_reward(2), 12.0);
  EXPECT_DOUBLE_EQ(model.state_reward(3), 14.0);
  EXPECT_DOUBLE_EQ(model.state_reward(tmr_voter_down_state(3)), 16.0);
}

TEST(TmrModel, Chapter5NmrConfigMatchesItsCalibration) {
  const core::Mrm model = make_tmr(chapter5_nmr_config());
  ASSERT_EQ(model.num_states(), 13u);
  EXPECT_DOUBLE_EQ(model.state_reward(0), 24.0);
  EXPECT_DOUBLE_EQ(model.state_reward(11), 35.0);
  EXPECT_DOUBLE_EQ(model.state_reward(tmr_voter_down_state(11)), 37.0);
  EXPECT_DOUBLE_EQ(model.impulse_reward(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.impulse_reward(tmr_voter_down_state(11), 0), 2.0);
  EXPECT_DOUBLE_EQ(make_tmr(chapter5_nmr_config(true)).rates().rate(0, 1), 11 * 0.0004);
}

TEST(TmrModel, ElevenModuleVariantHasThirteenStates) {
  TmrConfig config;
  config.num_modules = 11;
  const core::Mrm model = make_tmr(config);
  ASSERT_EQ(model.num_states(), 13u);
  EXPECT_TRUE(model.labels().has(0, "allUp"));
  EXPECT_TRUE(model.labels().has(0, "11up"));
  EXPECT_TRUE(model.labels().has(10, "1up"));
  EXPECT_TRUE(model.labels().has(10, "failed"));
  // The all-failed state can still lose its voter (index 12 = voter-down)
  // and be repaired, but has no further module-failure transition.
  EXPECT_DOUBLE_EQ(model.rates().rate(11, tmr_voter_down_state(11)), 0.0001);
  EXPECT_DOUBLE_EQ(model.rates().rate(11, 10), 0.05);
  EXPECT_DOUBLE_EQ(model.rates().exit_rate(11), 0.05 + 0.0001);
}

TEST(TmrModel, RejectsZeroModules) {
  TmrConfig config;
  config.num_modules = 0;
  EXPECT_THROW(make_tmr(config), std::invalid_argument);
}

TEST(CellphoneModel, ThreeStatesSatisfyIdleOrDoze) {
  const core::Mrm model = make_cellphone();
  const auto idle = model.labels().states_with("Call_Idle");
  const auto doze = model.labels().states_with("Doze");
  int count = 0;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    if (idle[s] || doze[s]) ++count;
  }
  // Table 5.1 setup: the transformed model has 3 transient states.
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(model.has_impulse_rewards());
}

TEST(CellphoneModel, RewardsAreIntegral) {
  const core::Mrm model = make_cellphone();
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    const double r = model.state_reward(s);
    EXPECT_DOUBLE_EQ(r, std::round(r)) << "state " << s;
  }
}

TEST(RandomMrm, IsDeterministicPerSeed) {
  const core::Mrm a = make_random_mrm(7);
  const core::Mrm b = make_random_mrm(7);
  ASSERT_EQ(a.num_states(), b.num_states());
  for (core::StateIndex s = 0; s < a.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(a.state_reward(s), b.state_reward(s));
    for (core::StateIndex s2 = 0; s2 < a.num_states(); ++s2) {
      EXPECT_DOUBLE_EQ(a.rates().rate(s, s2), b.rates().rate(s, s2));
      EXPECT_DOUBLE_EQ(a.impulse_reward(s, s2), b.impulse_reward(s, s2));
    }
  }
}

TEST(RandomMrm, DifferentSeedsDiffer) {
  const core::Mrm a = make_random_mrm(1);
  const core::Mrm b = make_random_mrm(2);
  bool any_difference = false;
  for (core::StateIndex s = 0; s < a.num_states() && !any_difference; ++s) {
    for (core::StateIndex s2 = 0; s2 < a.num_states(); ++s2) {
      if (a.rates().rate(s, s2) != b.rates().rate(s, s2)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomMrm, RespectsRewardGridConventions) {
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const core::Mrm model = make_random_mrm(seed);
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      EXPECT_DOUBLE_EQ(model.state_reward(s), std::round(model.state_reward(s)));
      for (const auto& e : model.impulse_rewards().row(s)) {
        const double quarters = e.value * 4.0;
        EXPECT_DOUBLE_EQ(quarters, std::round(quarters));
        EXPECT_GT(model.rates().rate(s, e.col), 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace csrlmrm::models
