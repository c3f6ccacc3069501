// Steady-state detection in the uniformization series (transient.hpp) and
// the backward series behind the P1 until path.
//
// The contract under test: with detection OFF the checked entry points are
// bitwise identical to the historical solver; with detection ON on a stiff
// model the series is cut early and the folded result stays within the
// reported steady_error of the full series; and the backward series agrees
// with forward per-start runs.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "checker/until.hpp"
#include "core/approx.hpp"
#include "models/generator.hpp"
#include "models/mm1k.hpp"
#include "models/random_mrm.hpp"
#include "numeric/transient.hpp"
#include "oracle/transient_forward.hpp"

namespace csrlmrm {
namespace {

/// The indicator vector of `target`: the backward series' start vector for a
/// hit probability.
std::vector<double> indicator_of(const std::vector<bool>& target) {
  std::vector<double> indicator(target.size(), 0.0);
  for (std::size_t s = 0; s < target.size(); ++s) {
    if (target[s]) indicator[s] = 1.0;
  }
  return indicator;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The stiff workload: an overloaded-then-drained M/M/1/50 queue. Lambda is
/// arrival + service = 220, so Lambda*t ~ 1e5 Poisson terms at t = 500 —
/// exactly the regime steady-state detection exists for.
core::Mrm make_stiff_queue() {
  models::Mm1kConfig config;
  config.capacity = 50;
  config.arrival_rate = 100.0;
  config.service_rate = 120.0;
  return models::make_mm1k(config);
}

TEST(SteadyDetection, OffIsBitwiseIdenticalToLegacyDistribution) {
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed);
    std::vector<double> initial(model.num_states(), 0.0);
    initial[seed % model.num_states()] = 1.0;
    for (const double t : {0.5, 3.0}) {
      const auto legacy = numeric::transient_distribution(model.rates(), initial, t);
      const auto checked =
          numeric::transient_distribution_checked(model.rates(), initial, t);
      EXPECT_TRUE(bitwise_equal(checked.values, legacy)) << "seed=" << seed << " t=" << t;
      EXPECT_FALSE(checked.steady_state_detected);
      EXPECT_TRUE(core::exactly_zero(checked.steady_error));
      EXPECT_GT(checked.series_terms, 0u);
    }
  }
}

TEST(SteadyDetection, FiresOnStiffQueueWithBoundedError) {
  const core::Mrm model = make_stiff_queue();
  std::vector<double> initial(model.num_states(), 0.0);
  initial[0] = 1.0;
  const double t = 500.0;

  numeric::TransientOptions off;
  const auto full = numeric::transient_distribution_checked(model.rates(), initial, t, off);
  ASSERT_FALSE(full.steady_state_detected);

  numeric::TransientOptions on;
  on.detect_steady_state = true;
  on.steady_epsilon = 1e-10;
  const auto cut = numeric::transient_distribution_checked(model.rates(), initial, t, on);

  EXPECT_TRUE(cut.steady_state_detected);
  EXPECT_LT(cut.series_terms, full.series_terms);
  EXPECT_GT(cut.steady_error, 0.0);
  EXPECT_LE(cut.steady_error, on.steady_epsilon);
  // The fold error is two-sided; the full run additionally truncates epsilon.
  const double tolerance = cut.steady_error + off.epsilon + on.epsilon;
  ASSERT_EQ(cut.values.size(), full.values.size());
  double mass = 0.0;
  for (std::size_t s = 0; s < cut.values.size(); ++s) {
    EXPECT_NEAR(cut.values[s], full.values[s], tolerance) << "state " << s;
    mass += cut.values[s];
  }
  EXPECT_NEAR(mass, 1.0, 1e-8);
}

TEST(SteadyDetection, BackwardHitProbabilitiesMatchForwardFanout) {
  const core::Mrm model = models::make_mm1k();
  const std::vector<bool> target = model.labels().states_with("full");
  const double t = 2.0;
  const auto hit = numeric::transient_backward(model.rates(), indicator_of(target), t);
  ASSERT_EQ(hit.values.size(), model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto forward = numeric::transient_distribution_from(model.rates(), s, t);
    double expected = 0.0;
    for (core::StateIndex v = 0; v < model.num_states(); ++v) {
      if (target[v]) expected += forward[v];
    }
    EXPECT_NEAR(hit.values[s], expected, 1e-9) << "start " << s;
  }
}

TEST(SteadyDetection, BackwardSeriesSteadyDetectionBoundsError) {
  const core::Mrm model = make_stiff_queue();
  const std::vector<bool> target = model.labels().states_with("empty");
  const double t = 500.0;

  numeric::TransientOptions off;
  const auto full = numeric::transient_backward(model.rates(), indicator_of(target), t, off);
  numeric::TransientOptions on;
  on.detect_steady_state = true;
  on.steady_epsilon = 1e-10;
  const auto cut = numeric::transient_backward(model.rates(), indicator_of(target), t, on);

  EXPECT_TRUE(cut.steady_state_detected);
  EXPECT_LT(cut.series_terms, full.series_terms);
  EXPECT_LE(cut.steady_error, on.steady_epsilon);
  const double tolerance = cut.steady_error + off.epsilon + on.epsilon;
  for (std::size_t s = 0; s < cut.values.size(); ++s) {
    EXPECT_NEAR(cut.values[s], full.values[s], tolerance) << "start " << s;
    EXPECT_GE(cut.values[s], -tolerance);
    EXPECT_LE(cut.values[s], 1.0 + tolerance);
  }
}

TEST(SteadyDetection, LargeUntilBackwardPathAgreesWithForwardSeries) {
  // 70x70 = 4900 states: a large P1 query, whose one-shot backward series
  // runs the blocked SpMV (every P1 query runs that series). The grid sink is
  // already absorbing, so Pr{ true U^[0,t] delivered } equals the plain
  // transient membership of the sink — computable independently through the
  // forward series for a cross-check of the two routes.
  const core::Mrm model = models::make_generated_mrm("grid:width=70,height=70");
  ASSERT_GE(model.num_states(), 4096u);
  const std::vector<bool> delivered = model.labels().states_with("delivered");
  const double t = 40.0;

  const auto values = checker::until_probabilities(
      model, std::vector<bool>(model.num_states(), true), delivered, logic::up_to(t),
      logic::Interval{});

  const auto forward = numeric::transient_distribution_from(model.rates(), 0, t);
  double expected = 0.0;
  for (core::StateIndex v = 0; v < model.num_states(); ++v) {
    if (delivered[v]) expected += forward[v];
  }
  EXPECT_NEAR(values[0].probability, expected, 1e-8);
  EXPECT_GE(values[0].error_bound, 0.0);
  EXPECT_LT(values[0].error_bound, 1e-6);
  // Sink states satisfy the until immediately.
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (delivered[s]) {
      EXPECT_NEAR(values[s].probability, 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace csrlmrm
