// Time- and reward-bounded until (P2) by uniformization: closed forms, the
// thesis's worked Example 3.6, error-bound behaviour, and engine options.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/until.hpp"
#include "core/transform.hpp"
#include "models/wavelan.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm::checker {
namespace {

using logic::Interval;

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

CheckerOptions tight(double w = 1e-14) {
  CheckerOptions options;
  options.uniformization.truncation_probability = w;
  return options;
}

TEST(RewardBoundedUntil, RewardBoundCapsTheUsefulTime) {
  // 0 -> 1 at rate mu with rho(0) = c: the jump must happen before
  // min(t, r/c), so P = 1 - exp(-mu min(t, r/c)).
  const double mu = 0.9;
  const double c = 2.0;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {c, 5.0});

  struct Case {
    double t, r;
  };
  for (const auto& [t, r] : {Case{1.0, 10.0}, Case{3.0, 2.0}, Case{2.0, 4.0}}) {
    const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                            logic::up_to(t), logic::up_to(r), tight());
    const double expected = 1.0 - std::exp(-mu * std::min(t, r / c));
    EXPECT_NEAR(values[0].probability, expected, 1e-8) << "t=" << t << " r=" << r;
  }
}

TEST(RewardBoundedUntil, ImpulseConsumesRewardBudget) {
  // As above with impulse iota on the jump: need c*T + iota <= r.
  const double mu = 1.2;
  const double c = 1.0;
  const double iota = 3.0;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::ImpulseRewardsBuilder impulses(2);
  impulses.add(0, 1, iota);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {c, 0.0},
                        impulses.build());

  const double t = 5.0;
  const double r = 4.0;  // jump must happen before (r - iota)/c = 1
  const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                          logic::up_to(t), logic::up_to(r), tight());
  EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-mu * 1.0), 1e-8);

  // Impulse alone busts the budget: probability 0.
  const auto blocked = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                           logic::up_to(t), logic::up_to(2.0), tight());
  EXPECT_NEAR(blocked[0].probability, 0.0, 1e-12);
}

TEST(RewardBoundedUntil, ThesisExample36Value) {
  // P(idle, idle U^[0,2]_[0,2000] busy) = 0.15789... (Example 3.6).
  const core::Mrm model = models::make_wavelan();
  const auto values = until_probabilities(model, model.labels().states_with("idle"),
                                          model.labels().states_with("busy"),
                                          logic::up_to(2.0), logic::up_to(2000.0), tight(1e-19));
  const double e3 = 14.25;
  const double a = (2000.0 - 0.42545) / 1319.0;
  const double b = (2000.0 - 0.36195) / 1319.0;
  const double expected = 1.5 / e3 * (1.0 - std::exp(-e3 * a)) +
                          0.75 / e3 * (1.0 - std::exp(-e3 * b));
  EXPECT_NEAR(values[models::kWavelanIdle].probability, expected, 1e-6);
  EXPECT_NEAR(expected, 0.15789, 1e-4);  // the thesis's rounded value
}

TEST(RewardBoundedUntil, DeadStatesScoreZero) {
  const core::Mrm model = models::make_wavelan();
  const auto values = until_probabilities(model, model.labels().states_with("idle"),
                                          model.labels().states_with("busy"),
                                          logic::up_to(2.0), logic::up_to(2000.0), tight(1e-19));
  EXPECT_DOUBLE_EQ(values[models::kWavelanOff].probability, 0.0);
  EXPECT_DOUBLE_EQ(values[models::kWavelanSleep].probability, 0.0);
  // A Psi start is absorbing in the transformed model: probability ~1 up to
  // the truncated Poisson tail.
  EXPECT_NEAR(values[models::kWavelanReceive].probability, 1.0, 1e-9);
}

TEST(RewardBoundedUntil, ZeroTimeBoundIsPsiIndicator) {
  const core::Mrm model = models::make_wavelan();
  const auto values = until_probabilities(model, std::vector<bool>(5, true),
                                          model.labels().states_with("busy"),
                                          logic::up_to(0.0), logic::up_to(100.0), tight());
  EXPECT_DOUBLE_EQ(values[models::kWavelanReceive].probability, 1.0);
  EXPECT_DOUBLE_EQ(values[models::kWavelanIdle].probability, 0.0);
}

TEST(RewardBoundedUntil, HugeRewardBoundMatchesTimeBoundedUntil) {
  // With r effectively unbounded the P2 engine must agree with the P1
  // transient-analysis path.
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  const double t = 0.4;
  const auto p2 = until_probabilities(model, idle, busy, logic::up_to(t),
                                      logic::up_to(1e7), tight(1e-19));
  const auto p1 = until_probabilities(model, idle, busy, logic::up_to(t), Interval{});
  EXPECT_NEAR(p2[models::kWavelanIdle].probability, p1[models::kWavelanIdle].probability,
              1e-7);
}

TEST(RewardBoundedUntil, ErrorBoundShrinksWithW) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  double previous_error = 1.0;
  double reference = -1.0;
  for (double w : {1e-14, 1e-16, 1e-18}) {
    const auto values = until_probabilities(model, idle, busy, logic::up_to(1.0),
                                            logic::up_to(2000.0), tight(w));
    const auto& v = values[models::kWavelanIdle];
    EXPECT_LE(v.error_bound, previous_error + 1e-15);
    previous_error = v.error_bound;
    if (reference < 0.0) reference = v.probability;
    // The probability moves by at most the coarser error bound.
    EXPECT_NEAR(v.probability, reference, 1e-6);
  }
}

TEST(RewardBoundedUntil, TruncatedProbabilityIsWithinErrorBoundOfTightValue) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  const auto coarse = until_probabilities(model, idle, busy, logic::up_to(1.0),
                                          logic::up_to(2000.0), tight(1e-9));
  const auto fine = until_probabilities(model, idle, busy, logic::up_to(1.0),
                                        logic::up_to(2000.0), tight(1e-18));
  const auto& c = coarse[models::kWavelanIdle];
  const auto& f = fine[models::kWavelanIdle];
  EXPECT_LE(c.probability, f.probability + 1e-12);  // truncation only loses mass
  EXPECT_LE(f.probability - c.probability, c.error_bound + 1e-12);
}

TEST(RewardBoundedUntil, PointTimeIntervalMatchesJointDistribution) {
  // tt U^[t,t]_[0,r] psi with huge r equals the plain transient probability
  // of being in a psi state at time t (Theorems 4.2/4.3).
  const double mu = 0.7;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::Labeling labels(2);
  labels.add(1, "goal");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)), {0.0, 0.0});
  const double t = 1.4;
  const auto values = until_probabilities(model, std::vector<bool>(2, true),
                                          model.labels().states_with("goal"),
                                          Interval(t, t), logic::up_to(1e6), tight());
  EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-mu * t), 1e-8);
}

TEST(RewardBoundedUntil, PointTimeIntervalAllowsLeavingPsi) {
  // Unlike [0,t], the [t,t] form requires psi AT time t; with a fast return
  // transition the probability is the transient occupancy, not the hitting
  // probability.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  core::Labeling labels(2);
  labels.add(1, "goal");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)),
                        std::vector<double>(2, 0.0));
  const double t = 2.0;
  const auto values = until_probabilities(model, std::vector<bool>(2, true),
                                          model.labels().states_with("goal"),
                                          Interval(t, t), logic::up_to(1e6), tight(1e-16));
  // Two-state symmetric chain: p1(t) = (1 - e^{-2t}) / 2.
  EXPECT_NEAR(values[0].probability, (1.0 - std::exp(-2.0 * t)) / 2.0, 1e-7);
}

TEST(RewardBoundedUntil, PointIntervalRequiresPsiImpliesPhi) {
  const core::Mrm model = models::make_wavelan();
  EXPECT_THROW(until_probabilities(model, model.labels().states_with("idle"),
                                   model.labels().states_with("busy"), Interval(1.0, 1.0),
                                   logic::up_to(10.0), tight()),
               UnsupportedFormulaError);
}

TEST(RewardBoundedUntil, RejectsRewardLowerBounds) {
  const core::Mrm model = models::make_wavelan();
  EXPECT_THROW(until_probabilities(model, std::vector<bool>(5, true),
                                   model.labels().states_with("busy"), logic::up_to(1.0),
                                   Interval(1.0, 2.0), tight()),
               UnsupportedFormulaError);
}

TEST(RewardBoundedUntil, SignatureAggregationDoesNotChangeTheResult) {
  // The per-path ablation knob exists only on the DFPG reference engine (the
  // checker's class-DP merges by signature inherently), so the knob is
  // exercised on that engine directly.
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  std::vector<bool> absorb(5, false);
  std::vector<bool> dead(5, false);
  for (std::size_t s = 0; s < 5; ++s) {
    absorb[s] = !idle[s] || busy[s];
    dead[s] = !idle[s] && !busy[s];
  }
  const numeric::UniformizationUntilEngine engine(core::make_absorbing(model, absorb), busy,
                                                  dead);
  numeric::PathGeneratorOptions aggregated;
  aggregated.truncation_probability = 1e-18;
  numeric::PathGeneratorOptions per_path = aggregated;
  per_path.aggregate_signatures = false;
  const auto a = engine.compute(models::kWavelanIdle, 1.0, 2000.0, aggregated);
  const auto b = engine.compute(models::kWavelanIdle, 1.0, 2000.0, per_path);
  EXPECT_NEAR(a.probability, b.probability, 1e-12);
}

TEST(RewardBoundedUntil, EngineReportsExplorationStatistics) {
  const core::Mrm model = models::make_wavelan();
  std::vector<bool> absorb(5, false);
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  std::vector<bool> dead(5, false);
  for (std::size_t s = 0; s < 5; ++s) {
    absorb[s] = !idle[s] || busy[s];
    dead[s] = !idle[s] && !busy[s];
  }
  numeric::UniformizationUntilEngine engine(core::make_absorbing(model, absorb), busy, dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-18;
  const auto result = engine.compute(models::kWavelanIdle, 1.0, 2000.0, options);
  EXPECT_GT(result.paths_stored, 0u);
  EXPECT_GT(result.signature_classes, 0u);
  EXPECT_LE(result.signature_classes, result.paths_stored);
  EXPECT_GT(result.nodes_expanded, result.paths_stored);
  EXPECT_GT(result.max_depth, 1u);
}

TEST(RewardBoundedUntil, NodeBudgetAborts) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  CheckerOptions options = tight(1e-18);
  options.uniformization.max_nodes = 10;
  EXPECT_THROW(until_probabilities(model, idle, busy, logic::up_to(1.0), logic::up_to(2000.0),
                                   options),
               std::runtime_error);
}

}  // namespace
}  // namespace csrlmrm::checker
