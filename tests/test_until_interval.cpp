// General time-interval until Phi U^[t1,t2] Psi (the [Bai03] two-phase
// reduction) against closed forms and the Monte Carlo simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/until.hpp"
#include "models/wavelan.hpp"
#include "oracle/simulator.hpp"

namespace csrlmrm::checker {
namespace {

using logic::Interval;

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

TEST(IntervalUntil, AbsorbingTargetCountsAnyArrivalBeforeT2) {
  // 0 -> 1 (absorbing, Psi) at rate mu, Phi = everything: a jump at any
  // T <= t2 leaves the chain in Psi throughout [t1, t2], so
  // P = 1 - e^{-mu t2} independently of t1.
  const double mu = 0.8;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                          Interval(1.0, 2.5), Interval{});
  EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-mu * 2.5), 1e-9);
  EXPECT_NEAR(values[1].probability, 1.0, 1e-9);  // starts in Psi
}

TEST(IntervalUntil, NonPhiTargetRequiresArrivalInsideTheWindow) {
  // Same chain but Phi = {0} only: the witness must be the arrival instant,
  // so P = Pr{T in [t1,t2]} = e^{-mu t1} - e^{-mu t2}.
  const double mu = 1.3;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const double t1 = 0.5;
  const double t2 = 1.5;
  const auto values =
      until_probabilities(model, mask(2, {0}), mask(2, {1}), Interval(t1, t2), Interval{});
  EXPECT_NEAR(values[0].probability, std::exp(-mu * t1) - std::exp(-mu * t2), 1e-9);
  // A Psi-but-not-Phi start can never be witnessed at a positive t1.
  EXPECT_NEAR(values[1].probability, 0.0, 1e-12);
}

TEST(IntervalUntil, PointIntervalIsTransientOccupancyOfPhiPsiStates) {
  // Symmetric two-state cycle, Psi = {1}, Phi = everything:
  // P(0, tt U^[t,t] {1}) = p1(t) = (1 - e^{-2t})/2.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const double t = 1.2;
  const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                          Interval(t, t), Interval{});
  EXPECT_NEAR(values[0].probability, (1.0 - std::exp(-2.0 * t)) / 2.0, 1e-9);
}

TEST(IntervalUntil, CollapsesToZeroBasedWhenT1IsZero) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  const auto a = until_probabilities(model, idle, busy, Interval(0.0, 1.0), Interval{});
  const auto b = until_probabilities(model, idle, busy, logic::up_to(1.0), Interval{});
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(a[s].probability, b[s].probability, 1e-12);
  }
}

TEST(IntervalUntil, AgreesWithSimulationOnWavelan) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  const auto busy = model.labels().states_with("busy");
  const Interval window(0.3, 1.0);
  const auto exact = until_probabilities(model, all, busy, window, Interval{});
  const auto estimate = sim::estimate_until(model, models::kWavelanOff, all, busy, window,
                                            Interval{}, {200000, 91});
  EXPECT_NEAR(exact[models::kWavelanOff].probability, estimate.mean,
              3.0 * estimate.half_width_95 / 1.96);
}

TEST(IntervalUntil, PhiConstraintAppliesDuringPhaseOne) {
  // 0 -> 1 -> 2 chain, Phi = {0, 2}, Psi = {2}: passing through the !Phi
  // state 1 kills the prefix, so the probability is 0 even though 2 is
  // reachable well inside the window.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 5.0);
  rates.add(1, 2, 5.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto values =
      until_probabilities(model, mask(3, {0, 2}), mask(3, {2}), Interval(1.0, 4.0), Interval{});
  EXPECT_NEAR(values[0].probability, 0.0, 1e-12);
}

TEST(IntervalUntil, WindowMonotoneInT2) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  const auto busy = model.labels().states_with("busy");
  double prev = -1.0;
  for (double t2 : {0.4, 0.8, 1.6, 3.2}) {
    const auto values =
        until_probabilities(model, all, busy, Interval(0.3, t2), Interval{});
    EXPECT_GE(values[models::kWavelanOff].probability, prev - 1e-9) << "t2=" << t2;
    prev = values[models::kWavelanOff].probability;
  }
}

TEST(IntervalUntil, RewardBoundedIntervalStillUnsupported) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  EXPECT_THROW(until_probabilities(model, all, all, Interval(1.0, 2.0), logic::up_to(5.0)),
               UnsupportedFormulaError);
}

}  // namespace
}  // namespace csrlmrm::checker
