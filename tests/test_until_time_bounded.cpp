// Time-bounded until without reward bound (P1): Theorem 4.1 reduction to
// transient analysis, against closed forms.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/until.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::checker {
namespace {

using logic::Interval;

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

TEST(TimeBoundedUntil, SingleTransitionMatchesExponentialCdf) {
  core::RateMatrixBuilder rates(2);
  const double mu = 0.8;
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {0.0, 0.0});
  for (double t : {0.5, 2.0, 10.0}) {
    const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                            logic::up_to(t), Interval{});
    EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-mu * t), 1e-9) << "t=" << t;
    EXPECT_DOUBLE_EQ(values[1].probability, 1.0);
  }
}

TEST(TimeBoundedUntil, PhiViolationMakesTargetUnreachable) {
  // 0 -> 1 -> 2 with Phi = {0}: P(0, Phi U^[0,t] {2}) = 0.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto values =
      until_probabilities(model, mask(3, {0}), mask(3, {2}), logic::up_to(10.0), Interval{});
  EXPECT_NEAR(values[0].probability, 0.0, 1e-12);
}

TEST(TimeBoundedUntil, TwoStepErlangReachability) {
  // 0 -> 1 -> 2 both at rate mu, all Phi: P = Erlang-2 CDF.
  const double mu = 1.3;
  const double t = 1.7;
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, mu);
  rates.add(1, 2, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto values = until_probabilities(model, std::vector<bool>(3, true), mask(3, {2}),
                                          logic::up_to(t), Interval{});
  const double erlang2 = 1.0 - std::exp(-mu * t) * (1.0 + mu * t);
  EXPECT_NEAR(values[0].probability, erlang2, 1e-9);
}

TEST(TimeBoundedUntil, PsiAbsorptionFreezesSuccess) {
  // Once Psi is hit the formula stays satisfied even if the original chain
  // would leave Psi again: 0 -> 1 -> 0 cycle, target {1}.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  rates.add(1, 0, 50.0);  // would bounce right back
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                          logic::up_to(3.0), Interval{});
  EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-2.0 * 3.0), 1e-9);
}

TEST(TimeBoundedUntil, ZeroTimeIsIndicatorOfPsi) {
  const core::Mrm model = models::make_wavelan();
  const auto values = until_probabilities(model, std::vector<bool>(5, true),
                                          model.labels().states_with("busy"),
                                          logic::up_to(0.0), Interval{});
  EXPECT_DOUBLE_EQ(values[models::kWavelanReceive].probability, 1.0);
  EXPECT_DOUBLE_EQ(values[models::kWavelanIdle].probability, 0.0);
}

TEST(TimeBoundedUntil, LongHorizonApproachesUnboundedUntil) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  const auto busy = model.labels().states_with("busy");
  const auto bounded = until_probabilities(model, all, busy, logic::up_to(1000.0), Interval{});
  const auto unbounded = unbounded_until_probabilities(model, all, busy);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(bounded[s].probability, unbounded[s], 1e-6) << "state " << s;
  }
}

TEST(TimeBoundedUntil, MonotoneInHorizon) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  double prev = 0.0;
  for (double t : {0.01, 0.05, 0.1, 0.5, 1.0}) {
    const auto values = until_probabilities(model, idle, busy, logic::up_to(t), Interval{});
    EXPECT_GE(values[models::kWavelanIdle].probability, prev - 1e-12);
    prev = values[models::kWavelanIdle].probability;
  }
}

TEST(TimeBoundedUntil, RejectsUnsupportedTimeShapes) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  // [t1, infinity) has no algorithm in the thesis or in [Bai03]'s two-phase
  // form as implemented here; bounded [t1,t2] is covered (see
  // test_until_interval.cpp).
  EXPECT_THROW(until_probabilities(
                   model, all, all,
                   Interval(1.0, std::numeric_limits<double>::infinity()), Interval{}),
               UnsupportedFormulaError);
}

TEST(UntilClassification, EachBoundShapeLandsInOneClass) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(classify_until(Interval{}, Interval{}), UntilClass::kUnbounded);
  EXPECT_EQ(classify_until(Interval(0.0, 5.0), Interval{}), UntilClass::kTimeBounded);
  EXPECT_EQ(classify_until(Interval(0.0, 0.0), Interval{}), UntilClass::kTimeBounded);
  EXPECT_EQ(classify_until(Interval(1.0, 5.0), Interval{}), UntilClass::kTwoPhase);
  EXPECT_EQ(classify_until(Interval(5.0, 5.0), Interval{}), UntilClass::kTwoPhase);
  EXPECT_EQ(classify_until(Interval(0.0, 5.0), Interval(0.0, 3.0)), UntilClass::kTimeReward);
  EXPECT_EQ(classify_until(Interval(5.0, 5.0), Interval(0.0, 3.0)),
            UntilClass::kPointTimeReward);
  EXPECT_EQ(classify_until(Interval(1.0, inf), Interval{}), UntilClass::kUnsupported);
  EXPECT_EQ(classify_until(Interval(1.0, 5.0), Interval(0.0, 3.0)), UntilClass::kUnsupported);
  EXPECT_EQ(classify_until(Interval{}, Interval(0.0, 3.0)), UntilClass::kUnsupported);
  EXPECT_EQ(classify_until(Interval(0.0, 5.0), Interval(1.0, 3.0)), UntilClass::kUnsupported);
  // [0,~] is the trivial bound, however it is written.
  EXPECT_EQ(classify_until(Interval(0.0, 5.0), Interval(0.0, inf)), UntilClass::kTimeBounded);
}

}  // namespace
}  // namespace csrlmrm::checker
