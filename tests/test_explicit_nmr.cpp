// The explicit-state NMR model and its lumping to the counter abstraction.
#include "oracle/explicit_nmr.hpp"

#include <gtest/gtest.h>

#include "checker/sat.hpp"
#include "checker/steady.hpp"
#include "logic/parser.hpp"
#include "oracle/lumping.hpp"

namespace csrlmrm::models {
namespace {

TmrConfig small_config() {
  TmrConfig config;
  config.num_modules = 4;
  config.variable_failure_rate = true;  // what independent modules mean
  return config;
}

TEST(ExplicitNmr, HasExponentialStateSpace) {
  const core::Mrm model = make_explicit_nmr(small_config());
  EXPECT_EQ(model.num_states(), (1u << 4) * 2u);
}

TEST(ExplicitNmr, PerModuleTransitionsExist) {
  const TmrConfig config = small_config();
  const core::Mrm model = make_explicit_nmr(config);
  const auto all_up = explicit_nmr_state(0, false, 4);
  // Four independent failure edges out of the all-up state plus the voter.
  EXPECT_EQ(model.rates().transitions(all_up).size(), 5u);
  EXPECT_DOUBLE_EQ(model.rates().rate(all_up, explicit_nmr_state(0b0001, false, 4)),
                   config.module_failure_rate);
  EXPECT_DOUBLE_EQ(model.rates().rate(all_up, explicit_nmr_state(0b1000, false, 4)),
                   config.module_failure_rate);
  // Repair fixes the lowest-index failed module and pays the impulse.
  const auto two_failed = explicit_nmr_state(0b0110, false, 4);
  EXPECT_DOUBLE_EQ(model.rates().rate(two_failed, explicit_nmr_state(0b0100, false, 4)),
                   config.module_repair_rate);
  EXPECT_DOUBLE_EQ(model.impulse_reward(two_failed, explicit_nmr_state(0b0100, false, 4)),
                   config.module_repair_impulse);
}

TEST(ExplicitNmr, LumpsToTheCounterModel) {
  const core::Mrm model = make_explicit_nmr(small_config());
  const core::Lumping lumping = core::compute_lumping(model);
  // N+1 module-count blocks plus one voter-down block.
  EXPECT_EQ(lumping.num_blocks, 4u + 2u);
  // All states with the same failed count share a block.
  EXPECT_EQ(lumping.block_of[explicit_nmr_state(0b0011, false, 4)],
            lumping.block_of[explicit_nmr_state(0b1100, false, 4)]);
  // Every voter-down state lumps together regardless of the module mask.
  EXPECT_EQ(lumping.block_of[explicit_nmr_state(0b0000, true, 4)],
            lumping.block_of[explicit_nmr_state(0b1111, true, 4)]);
}

TEST(ExplicitNmr, QuotientMatchesMakeTmrNumerically) {
  const TmrConfig config = small_config();
  const core::Mrm explicit_model = make_explicit_nmr(config);
  const core::Mrm quotient = core::lump(explicit_model);
  const core::Mrm counter = make_tmr(config);
  ASSERT_EQ(quotient.num_states(), counter.num_states());

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-10;
  checker::ModelChecker quotient_checker(quotient, options);
  checker::ModelChecker counter_checker(counter, options);

  const auto formula = logic::parse_formula("P(>0.1)[TT U[0,100][0,2000] allUp]");
  const auto quotient_values = quotient_checker.path_probabilities(formula);
  const auto counter_values = counter_checker.path_probabilities(formula);

  // Match states through their unique "<k>up"/"vdown" labels.
  for (unsigned working = 0; working <= 4; ++working) {
    const std::string label = std::to_string(working) + "up";
    const auto quotient_mask = quotient.labels().states_with(label);
    const auto counter_mask = counter.labels().states_with(label);
    core::StateIndex qs = 0;
    core::StateIndex cs = 0;
    for (core::StateIndex s = 0; s < quotient.num_states(); ++s) {
      if (quotient_mask[s]) qs = s;
      if (counter_mask[s]) cs = s;
    }
    EXPECT_NEAR(quotient_values[qs].probability, counter_values[cs].probability, 1e-9)
        << label;
  }
}

TEST(ExplicitNmr, SteadyStateAggregatesToCounterModel) {
  const TmrConfig config = small_config();
  const core::Mrm explicit_model = make_explicit_nmr(config);
  const core::Mrm counter = make_tmr(config);

  const auto explicit_failed = checker::steady_state_probability_of_set(
      explicit_model, explicit_model.labels().states_with("failed"));
  const auto counter_failed = checker::steady_state_probability_of_set(
      counter, counter.labels().states_with("failed"));
  EXPECT_NEAR(explicit_failed[explicit_nmr_state(0, false, 4)], counter_failed[0], 1e-8);
}

TEST(ExplicitNmr, RejectsOutOfRangeModuleCounts) {
  TmrConfig config;
  config.num_modules = 0;
  EXPECT_THROW(make_explicit_nmr(config), std::invalid_argument);
  config.num_modules = 17;
  EXPECT_THROW(make_explicit_nmr(config), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::models
