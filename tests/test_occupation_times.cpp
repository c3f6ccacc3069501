// Expected occupation times E[L_j(t)] by the backward occupation series:
// E[L_j(t)] from start s is occupation_backward's value at s for g = e_j.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numeric/transient.hpp"

namespace csrlmrm::numeric {
namespace {

/// E[L_j(t)] for every state j, started from `initial`: one backward series
/// per indicator e_j, weighed by the initial distribution.
std::vector<double> expected_occupation_times(const core::RateMatrix& rates,
                                              const std::vector<double>& initial, double t) {
  const std::size_t n = rates.num_states();
  std::vector<double> occupation(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> indicator(n, 0.0);
    indicator[j] = 1.0;
    const auto from = occupation_backward(rates, indicator, t);
    for (std::size_t s = 0; s < n; ++s) occupation[j] += initial[s] * from[s];
  }
  return occupation;
}

TEST(OccupationTimes, SumToTheHorizon) {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 0.5);
  rates.add(2, 0, 2.0);
  const auto matrix = rates.build();
  for (double t : {0.5, 3.0, 20.0}) {
    const auto occupation = expected_occupation_times(matrix, {1.0, 0.0, 0.0}, t);
    double total = 0.0;
    for (double l : occupation) total += l;
    EXPECT_NEAR(total, t, 1e-8) << "t=" << t;
  }
}

TEST(OccupationTimes, AbsorbingChainMatchesClosedForm) {
  // 0 -> 1 at mu: E[L_0(t)] = E[min(T,t)] = (1 - e^{-mu t}) / mu.
  const double mu = 0.8;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const auto matrix = rates.build();
  for (double t : {0.25, 1.0, 5.0, 50.0}) {
    const auto occupation = expected_occupation_times(matrix, {1.0, 0.0}, t);
    const double expected = (1.0 - std::exp(-mu * t)) / mu;
    EXPECT_NEAR(occupation[0], expected, 1e-8) << "t=" << t;
    EXPECT_NEAR(occupation[1], t - expected, 1e-8);
  }
}

TEST(OccupationTimes, LongHorizonFollowsSteadyState) {
  // Two-state chain a=1, b=3: pi = (3/4, 1/4); L_s(t)/t -> pi_s.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 3.0);
  const auto occupation = expected_occupation_times(rates.build(), {1.0, 0.0}, 500.0);
  EXPECT_NEAR(occupation[0] / 500.0, 0.75, 1e-3);
  EXPECT_NEAR(occupation[1] / 500.0, 0.25, 1e-3);
}

TEST(OccupationTimes, ZeroHorizonIsZero) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const auto occupation = expected_occupation_times(rates.build(), {0.5, 0.5}, 0.0);
  EXPECT_DOUBLE_EQ(occupation[0], 0.0);
  EXPECT_DOUBLE_EQ(occupation[1], 0.0);
}

TEST(OccupationTimes, AllAbsorbingSplitsByInitialDistribution) {
  const auto occupation =
      expected_occupation_times(core::RateMatrixBuilder(2).build(), {0.25, 0.75}, 8.0);
  EXPECT_DOUBLE_EQ(occupation[0], 2.0);
  EXPECT_DOUBLE_EQ(occupation[1], 6.0);
}

TEST(OccupationTimes, ConstantRewardAccumulatesTheHorizonFromEveryStart) {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 0.5);
  rates.add(2, 0, 2.0);
  const auto values = occupation_backward(rates.build(), {2.0, 2.0, 2.0}, 3.0);
  for (const double v : values) EXPECT_NEAR(v, 6.0, 1e-8);
}

TEST(OccupationTimes, RejectsBadInput) {
  // g is any finite per-state function (gain rates, indicators), so its
  // size, its finiteness and the horizon are validated.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const auto matrix = rates.build();
  EXPECT_THROW(occupation_backward(matrix, {1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(occupation_backward(matrix, {1.0, 0.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(occupation_backward(matrix, {1.0, 0.0}, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(occupation_backward(matrix, {std::numeric_limits<double>::quiet_NaN(), 0.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(occupation_backward(matrix, {1.0, -std::numeric_limits<double>::infinity()}, 1.0),
               std::invalid_argument);
}

TEST(UniformizedTransitionMatrix, IsSharedAndStochastic) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  rates.add(1, 0, 1.0);
  double lambda = 0.0;
  const auto P = uniformized_transition_matrix(rates.build(), lambda);
  EXPECT_DOUBLE_EQ(lambda, 2.0);
  EXPECT_NEAR(P.row_sum(0), 1.0, 1e-12);
  EXPECT_NEAR(P.row_sum(1), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(P.at(1, 1), 0.5);
}

}  // namespace
}  // namespace csrlmrm::numeric
