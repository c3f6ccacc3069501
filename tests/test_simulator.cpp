// Monte Carlo simulator: closed forms, agreement with the exact engines,
// and semantics corners (arrival-instant witnesses, general intervals).
#include "oracle/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "checker/next.hpp"
#include "checker/until.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::sim {
namespace {

using logic::Interval;

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

core::Mrm death_chain(double mu, double c, double iota = 0.0) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::ImpulseRewardsBuilder impulses(2);
  if (iota > 0.0) impulses.add(0, 1, iota);
  return core::Mrm(core::Ctmc(rates.build(), core::Labeling(2)), {c, 0.0}, impulses.build());
}

TEST(Simulator, UntilMatchesExponentialClosedForm) {
  const double mu = 0.7;
  const core::Mrm model = death_chain(mu, 0.0);
  const double t = 2.0;
  const auto estimate = estimate_until(model, 0, std::vector<bool>(2, true), mask(2, {1}),
                                       logic::up_to(t), Interval{}, {200000, 42});
  EXPECT_NEAR(estimate.mean, 1.0 - std::exp(-mu * t), 3.0 * estimate.half_width_95 / 1.96);
  EXPECT_LT(estimate.half_width_95, 0.01);
}

TEST(Simulator, RewardBoundMatchesEngineValue) {
  // 0 -> 1 at mu with rho(0) = c, impulse iota: P = 1 - exp(-mu (r-iota)/c).
  const double mu = 1.1;
  const core::Mrm model = death_chain(mu, 2.0, 1.0);
  const double t = 10.0;
  const double r = 5.0;  // jump deadline (5-1)/2 = 2
  const auto estimate = estimate_until(model, 0, std::vector<bool>(2, true), mask(2, {1}),
                                       logic::up_to(t), logic::up_to(r), {200000, 7});
  EXPECT_NEAR(estimate.mean, 1.0 - std::exp(-mu * 2.0), 3.0 * estimate.half_width_95 / 1.96);
}

TEST(Simulator, AgreesWithUniformizationOnWavelan) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-15;
  const auto exact = checker::until_probabilities(model, idle, busy, logic::up_to(2.0),
                                                  logic::up_to(2000.0), options);
  const auto estimate = estimate_until(model, models::kWavelanIdle, idle, busy,
                                       logic::up_to(2.0), logic::up_to(2000.0), {300000, 99});
  EXPECT_NEAR(estimate.mean, exact[models::kWavelanIdle].probability,
              3.0 * estimate.half_width_95 / 1.96);
}

TEST(Simulator, ArrivalInstantWitnessForNonPhiPsiStates) {
  // 0 -> 1 where 1 |= Psi but not Phi: the formula can only be witnessed at
  // the arrival instant, so a reward lower bound strictly above the
  // at-arrival accumulation forces probability 0.
  const double mu = 2.0;
  core::Mrm model = death_chain(mu, 0.0, 1.0);  // arrival reward is exactly 1
  const auto phi = mask(2, {0});
  const auto psi = mask(2, {1});
  const auto blocked =
      estimate_until(model, 0, phi, psi, logic::up_to(5.0),
                     Interval(2.0, std::numeric_limits<double>::infinity()), {20000, 5});
  EXPECT_DOUBLE_EQ(blocked.mean, 0.0);
  const auto allowed = estimate_until(model, 0, phi, psi, logic::up_to(5.0),
                                      Interval(1.0, 2.0), {20000, 5});
  EXPECT_GT(allowed.mean, 0.9);
}

TEST(Simulator, ResidenceWindowWitnessForPhiPsiStates) {
  // If the Psi state also satisfies Phi, waiting inside it can realize a
  // reward lower bound: rho(1) = 1 keeps accumulating after arrival.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {0.0, 1.0});
  const auto estimate = estimate_until(
      model, 0, std::vector<bool>(2, true), mask(2, {1}), logic::up_to(100.0),
      Interval(3.0, std::numeric_limits<double>::infinity()), {20000, 11});
  EXPECT_DOUBLE_EQ(estimate.mean, 1.0);  // absorbing: the reward always gets there
}

TEST(Simulator, TimeLowerBoundsAreRespected) {
  // P(0, tt U^[a,b] {1}) for the death chain: arrival in [0,b] suffices iff
  // we are still in 1 (absorbing) during [a,b]: P = Pr{jump <= b} since the
  // absorbing target persists; with target NOT absorbing it differs, so use
  // the simple absorbing case as a closed form.
  const double mu = 1.0;
  const core::Mrm model = death_chain(mu, 0.0);
  const double a = 1.0;
  const double b = 2.0;
  const auto estimate = estimate_until(model, 0, std::vector<bool>(2, true), mask(2, {1}),
                                       Interval(a, b), Interval{}, {200000, 3});
  EXPECT_NEAR(estimate.mean, 1.0 - std::exp(-mu * b), 3.0 * estimate.half_width_95 / 1.96);
}

TEST(Simulator, NextAgreesWithExactValues) {
  const core::Mrm model = models::make_wavelan();
  const auto busy = model.labels().states_with("busy");
  const auto exact =
      checker::next_probabilities(model, busy, logic::up_to(0.1), logic::up_to(100.0));
  MrmSimulator simulator(model, 123);
  std::size_t hits = 0;
  const std::size_t samples = 200000;
  for (std::size_t i = 0; i < samples; ++i) {
    hits += simulator.sample_next(models::kWavelanIdle, busy, logic::up_to(0.1),
                                  logic::up_to(100.0));
  }
  const double estimate = static_cast<double>(hits) / static_cast<double>(samples);
  EXPECT_NEAR(estimate, exact[models::kWavelanIdle], 0.005);
}

TEST(Simulator, AccumulatedRewardHasCorrectMean) {
  // Two-state cycle: long-run gain rate = pi0 rho0 + pi1 rho1 + flux * iota.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  core::ImpulseRewardsBuilder impulses(2);
  impulses.add(0, 1, 0.5);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {2.0, 4.0},
                        impulses.build());
  const double t = 50.0;
  const auto estimate = estimate_expected_reward(model, 0, t, {50000, 17});
  // pi = (1/2, 1/2); E[Y]/t ~ 0.5*2 + 0.5*4 + 0.5(rate 1 * iota 0.5) = 3.25.
  EXPECT_NEAR(estimate.mean / t, 3.25, 0.05);
}

TEST(Simulator, PerformabilityEstimateIsMonotoneInR) {
  const core::Mrm model = models::make_wavelan();
  double prev = -1.0;
  for (double r : {100.0, 500.0, 2000.0}) {
    const auto estimate = estimate_performability(model, models::kWavelanOff, 1.0, r,
                                                  {20000, 23});
    EXPECT_GE(estimate.mean, prev);
    prev = estimate.mean;
  }
}

TEST(Simulator, DeterministicPerSeed) {
  const core::Mrm model = models::make_wavelan();
  const auto busy = model.labels().states_with("busy");
  const auto idle = model.labels().states_with("idle");
  const auto a = estimate_until(model, models::kWavelanIdle, idle, busy, logic::up_to(1.0),
                                Interval{}, {5000, 77});
  const auto b = estimate_until(model, models::kWavelanIdle, idle, busy, logic::up_to(1.0),
                                Interval{}, {5000, 77});
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(Simulator, RejectsBadInput) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  EXPECT_THROW(estimate_until(model, 0, all, all, Interval{}, Interval{}, {1000, 1}),
               std::invalid_argument);  // unbounded horizon
  EXPECT_THROW(estimate_until(model, 99, all, all, logic::up_to(1.0), Interval{}, {10, 1}),
               std::invalid_argument);
  EXPECT_THROW(estimate_until(model, 0, all, all, logic::up_to(1.0), Interval{}, {0, 1}),
               std::invalid_argument);
  MrmSimulator simulator(model, 1);
  EXPECT_THROW(simulator.sample_accumulated_reward(0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::sim
