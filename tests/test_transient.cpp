// Standard CTMC transient analysis against closed forms.
#include "numeric/transient.hpp"
#include "oracle/transient_forward.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/rate_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace csrlmrm::numeric {
namespace {

core::RateMatrix two_state(double a, double b) {
  core::RateMatrixBuilder builder(2);
  builder.add(0, 1, a);
  builder.add(1, 0, b);
  return builder.build();
}

TEST(Transient, AtTimeZeroReturnsInitialDistribution) {
  const auto p = transient_distribution(two_state(1.0, 2.0), {0.3, 0.7}, 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.3);
  EXPECT_DOUBLE_EQ(p[1], 0.7);
}

TEST(Transient, PureDecayMatchesExponential) {
  // 0 -> 1 absorbing at rate mu: p0(t) = e^{-mu t}.
  core::RateMatrixBuilder builder(2);
  const double mu = 1.7;
  builder.add(0, 1, mu);
  const auto rates = builder.build();
  for (double t : {0.1, 0.5, 1.0, 3.0}) {
    const auto p = transient_distribution_from(rates, 0, t);
    EXPECT_NEAR(p[0], std::exp(-mu * t), 1e-10) << "t=" << t;
    EXPECT_NEAR(p[1], 1.0 - std::exp(-mu * t), 1e-10);
  }
}

TEST(Transient, TwoStateChainMatchesClosedForm) {
  // p0(t) = b/(a+b) + a/(a+b) e^{-(a+b)t} starting in state 0.
  const double a = 2.0;
  const double b = 0.5;
  const auto rates = two_state(a, b);
  for (double t : {0.25, 1.0, 4.0}) {
    const auto p = transient_distribution_from(rates, 0, t);
    const double expected = b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
    EXPECT_NEAR(p[0], expected, 1e-10) << "t=" << t;
  }
}

TEST(Transient, ResultIsADistribution) {
  const auto p = transient_distribution(two_state(1.0, 3.0), {0.5, 0.5}, 2.0);
  EXPECT_TRUE(linalg::is_distribution(p, 1e-9));
}

TEST(Transient, AllAbsorbingChainDoesNotMove) {
  core::RateMatrixBuilder builder(3);
  const auto p = transient_distribution(builder.build(), {0.2, 0.3, 0.5}, 10.0);
  EXPECT_DOUBLE_EQ(p[0], 0.2);
  EXPECT_DOUBLE_EQ(p[1], 0.3);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
}

TEST(Transient, ConvergesToSteadyStateForLargeT) {
  const double a = 1.0;
  const double b = 4.0;
  const auto p = transient_distribution_from(two_state(a, b), 0, 200.0);
  EXPECT_NEAR(p[0], b / (a + b), 1e-9);
  EXPECT_NEAR(p[1], a / (a + b), 1e-9);
}

TEST(Transient, SelfLoopsDoNotChangeTheDistribution) {
  // A CTMC self-loop is semantically invisible to occupation probabilities.
  core::RateMatrixBuilder plain(2);
  plain.add(0, 1, 1.0);
  plain.add(1, 0, 2.0);
  core::RateMatrixBuilder looped(2);
  looped.add(0, 1, 1.0);
  looped.add(1, 0, 2.0);
  looped.add(0, 0, 5.0);
  const auto p1 = transient_distribution_from(plain.build(), 0, 1.5);
  const auto p2 = transient_distribution_from(looped.build(), 0, 1.5);
  EXPECT_NEAR(p1[0], p2[0], 1e-9);
  EXPECT_NEAR(p1[1], p2[1], 1e-9);
}

TEST(Transient, RejectsBadInitialDistribution) {
  const auto rates = two_state(1.0, 1.0);
  EXPECT_THROW(transient_distribution(rates, {0.5, 0.4}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution(rates, {1.5, -0.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution(rates, {1.0}, 1.0), std::invalid_argument);
  // Non-finite entries: NaN slips past both the sign and the mass test.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  core::RateMatrixBuilder builder(3);
  builder.add(0, 1, 1.0);
  builder.add(1, 2, 2.0);
  const auto three = builder.build();
  EXPECT_THROW(transient_distribution(three, {nan, 0.5, 0.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution(rates, {inf, 0.0}, 1.0), std::invalid_argument);
  // The backward series takes any finite per-state function, and only that.
  EXPECT_THROW(transient_backward(three, {1.0, inf, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_backward(three, {nan, 0.0, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(transient_backward(three, {1.0, 0.0}, 1.0), std::invalid_argument);
  EXPECT_EQ(transient_backward(three, {-2.0, 0.0, 0.0}, 0.0).values[0], -2.0);
}

TEST(Transient, RejectsBadTime) {
  const auto rates = two_state(1.0, 1.0);
  EXPECT_THROW(transient_distribution_from(rates, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(transient_distribution_from(rates, 5, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::numeric
