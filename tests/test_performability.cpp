// Performability measures (Definition 3.4): Pr{Y(t) <= r}, its CDF, the
// expected accumulated reward and long-run reward rates — cross-checked
// against closed forms, the simulator, and between engines.
#include "checker/performability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "models/mm1k.hpp"
#include "models/wavelan.hpp"
#include "oracle/path_explorer.hpp"
#include "oracle/simulator.hpp"

namespace csrlmrm::checker {
namespace {

CheckerOptions tight(double w = 1e-12) {
  CheckerOptions options;
  options.uniformization.truncation_probability = w;
  return options;
}

TEST(Performability, SingleStateIsDeterministic) {
  // One absorbing state with rho = 3: Y(t) = 3t exactly. The uniformization
  // engine sums truncated path prefixes, so the "1" case carries the
  // truncated Poisson tail within its reported error bound; the "0" case is
  // exact (every signature class evaluates to conditional probability 0).
  const core::Mrm model(core::Ctmc(core::RateMatrixBuilder(1).build(), core::Labeling(1)),
                        {3.0});
  const auto certain = performability(model, 0, 2.0, 6.0, tight());
  EXPECT_NEAR(certain.probability, 1.0, certain.error_bound + 1e-15);
  EXPECT_DOUBLE_EQ(performability(model, 0, 2.0, 5.9, tight()).probability, 0.0);
}

TEST(Performability, TwoStateChainMatchesHandComputation) {
  // 0 (rho = 2) -> 1 (rho = 0, absorbing) at rate mu: Y(t) = 2 min(T, t),
  // T ~ Exp(mu). Pr{Y(t) <= r} for r < 2t is Pr{T <= r/2} = 1 - e^{-mu r/2}.
  const double mu = 0.9;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {2.0, 0.0});
  const double t = 4.0;
  const double r = 3.0;  // < 2t = 8
  const auto value = performability(model, 0, t, r, tight(1e-14));
  EXPECT_NEAR(value.probability, 1.0 - std::exp(-mu * r / 2.0), 1e-8);
  // r >= 2t: certain.
  EXPECT_NEAR(performability(model, 0, t, 8.5, tight(1e-14)).probability, 1.0, 1e-9);
}

TEST(Performability, EnginesAgreeOnMm1k) {
  const core::Mrm model = models::make_mm1k({4, 0.5, 1.0, 1.0, 3.0, 1.0});
  const double t = 3.0;
  const double r = 8.0;
  const auto by_uniformization = performability(model, 0, t, r, tight(1e-12));
  CheckerOptions discretization;
  discretization.until_method = UntilMethod::kDiscretization;
  discretization.discretization.step = 1.0 / 128.0;
  const auto by_discretization = performability(model, 0, t, r, discretization);
  EXPECT_NEAR(by_uniformization.probability, by_discretization.probability, 0.02);
}

TEST(Performability, MatchesSimulationOnWavelan) {
  const core::Mrm model = models::make_wavelan();
  const double t = 0.5;
  const double r = 400.0;
  const auto exact = performability(model, models::kWavelanOff, t, r, tight(1e-13));
  const auto simulated =
      sim::estimate_performability(model, models::kWavelanOff, t, r, {200000, 31});
  EXPECT_NEAR(exact.probability, simulated.mean, 3.0 * simulated.half_width_95 / 1.96);
}

TEST(Performability, CdfIsMonotoneAndReachesOne) {
  const core::Mrm model = models::make_mm1k({3, 0.5, 1.0, 1.0, 4.0, 2.0});
  const std::vector<double> bounds{0.5, 2.0, 5.0, 10.0, 100.0};
  const auto cdf = performability_cdf(model, 0, 2.0, bounds, tight(1e-12));
  double prev = -1.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_GE(cdf[i].probability, prev - 1e-12);
    prev = cdf[i].probability;
  }
  EXPECT_NEAR(cdf.back().probability, 1.0, 1e-6);
}

/// Perf(<= r) from every start and bound through the checker (class-DP)
/// against the DFPG reference engine called directly: both bracket the
/// exact value from below, so their enclosures overlap and the point values
/// agree within the summed error bounds. The CDF entry point must reproduce
/// the single-bound values bitwise.
void expect_matches_dfpg_oracle(const core::Mrm& model, double t,
                                const std::vector<double>& bounds, double w) {
  const numeric::UniformizationUntilEngine oracle(
      model, std::vector<bool>(model.num_states(), true),
      std::vector<bool>(model.num_states(), false));
  numeric::PathExplorerOptions oracle_options;
  oracle_options.truncation_probability = w;
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto cdf = performability_cdf(model, start, t, bounds, tight(w));
    ASSERT_EQ(cdf.size(), bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const double r = bounds[i];
      const auto value = performability(model, start, t, r, tight(w));
      const auto reference = oracle.compute(start, t, r, oracle_options);
      EXPECT_NEAR(value.probability, reference.probability,
                  value.error_bound + reference.error_bound + 1e-12)
          << "start=" << start << " r=" << r;
      EXPECT_TRUE(value.bound.overlaps(ProbabilityBound::from_point_error(
          reference.probability, 0.0, reference.error_bound)))
          << "start=" << start << " r=" << r << ": " << value.bound.to_string();
      EXPECT_EQ(cdf[i].probability, value.probability) << "start=" << start << " r=" << r;
      EXPECT_EQ(cdf[i].error_bound, value.error_bound) << "start=" << start << " r=" << r;
    }
  }
}

TEST(Performability, ClassDpMatchesTheDfpgOracleOnWavelan) {
  expect_matches_dfpg_oracle(models::make_wavelan(), 0.25, {25.0, 100.0, 200.0, 400.0}, 1e-10);
}

TEST(Performability, ClassDpMatchesTheDfpgOracleOnTheQueue) {
  expect_matches_dfpg_oracle(models::make_mm1k({4, 0.5, 1.0, 1.0, 3.0, 1.0}), 3.0,
                             {1.0, 4.0, 8.0, 20.0}, 1e-10);
}

TEST(ExpectedReward, SingleStateIsRateTimesTime) {
  const core::Mrm model(core::Ctmc(core::RateMatrixBuilder(1).build(), core::Labeling(1)),
                        {3.0});
  EXPECT_NEAR(expected_accumulated_reward(model, 0, 7.0), 21.0, 1e-9);
}

TEST(ExpectedReward, PureDeathChainMatchesClosedForm) {
  // 0 (rho = c) -> 1 (rho = 0) at mu with impulse iota:
  // E[Y(t)] = c E[min(T,t)] + iota Pr{T <= t}
  //         = (c/mu)(1 - e^{-mu t}) + iota (1 - e^{-mu t}).
  const double mu = 0.6;
  const double c = 2.0;
  const double iota = 1.5;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::ImpulseRewardsBuilder impulses(2);
  impulses.add(0, 1, iota);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {c, 0.0},
                        impulses.build());
  for (double t : {0.5, 2.0, 10.0}) {
    const double expected = (c / mu + iota) * (1.0 - std::exp(-mu * t));
    EXPECT_NEAR(expected_accumulated_reward(model, 0, t), expected, 1e-8) << "t=" << t;
  }
}

TEST(ExpectedReward, AgreesWithSimulation) {
  const core::Mrm model = models::make_mm1k({4, 0.7, 1.0, 1.0, 5.0, 2.0});
  const double t = 6.0;
  const double exact = expected_accumulated_reward(model, 0, t);
  const auto simulated = sim::estimate_expected_reward(model, 0, t, {100000, 41});
  EXPECT_NEAR(exact, simulated.mean, 3.0 * simulated.half_width_95 / 1.96);
}

TEST(LongRunRewardRate, MatchesExpectedRewardSlope) {
  const core::Mrm model = models::make_wavelan();
  const auto rates = long_run_reward_rate(model);
  // Strongly connected: every start state has the same rate.
  for (std::size_t s = 1; s < 5; ++s) EXPECT_NEAR(rates[s], rates[0], 1e-9);
  // E[Y(t)] / t converges to the long-run rate.
  const double t = 2000.0;
  EXPECT_NEAR(expected_accumulated_reward(model, 0, t) / t, rates[0], 0.01 * rates[0]);
}

TEST(LongRunRewardRate, MultiBsccModelDependsOnStart) {
  // 0 -> 1 or 0 -> 2 (absorbing, different rewards): the long-run rate from
  // 1 is rho(1), from 2 is rho(2), from 0 the mixture.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(0, 2, 3.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)), {0.0, 4.0, 8.0});
  const auto rate = long_run_reward_rate(model);
  EXPECT_NEAR(rate[1], 4.0, 1e-9);
  EXPECT_NEAR(rate[2], 8.0, 1e-9);
  EXPECT_NEAR(rate[0], 0.25 * 4.0 + 0.75 * 8.0, 1e-9);
}

TEST(Performability, RejectsBadStart) {
  const core::Mrm model = models::make_wavelan();
  EXPECT_THROW(expected_accumulated_reward(model, 99, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::checker
