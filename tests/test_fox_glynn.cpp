// Fox-Glynn weights against the lgamma-based Poisson pmf.
#include "numeric/fox_glynn.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "numeric/poisson.hpp"
#include "oracle/numeric_reference.hpp"

namespace csrlmrm::numeric {
namespace {

TEST(FoxGlynn, ZeroMeanIsPointMass) {
  const auto window = fox_glynn(0.0, 1e-10);
  EXPECT_EQ(window.left, 0u);
  EXPECT_EQ(window.right, 0u);
  EXPECT_DOUBLE_EQ(window.probability(0), 1.0);
}

TEST(FoxGlynn, RejectsAMeanWhoseWindowEndsPast2To53) {
  // At mean 1e30 the window ends used to be converted to std::size_t out of
  // range, and the garbage window answered 0 for every start.
  EXPECT_THROW(fox_glynn(1e30, 1e-10), std::invalid_argument);
  EXPECT_THROW(fox_glynn(kMaxPoissonWindowEnd, 1e-10), std::invalid_argument);
}

class FoxGlynnMeans : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnMeans, WeightsMatchStablePmf) {
  const double mean = GetParam();
  const auto window = fox_glynn(mean, 1e-12);
  for (std::size_t k = window.left; k <= window.right; ++k) {
    const double exact = poisson_pmf(k, mean);
    if (exact < 1e-250) continue;  // below any meaningful comparison
    // lgamma itself carries ~1e-15 per-digit error which scales with k.
    const double tolerance = 1e-11 + 1e-14 * static_cast<double>(k);
    EXPECT_NEAR(window.probability(k - window.left) / exact, 1.0, tolerance)
        << "mean=" << mean << " k=" << k;
  }
}

TEST_P(FoxGlynnMeans, WindowCapturesRequestedMass) {
  const double mean = GetParam();
  const double epsilon = 1e-9;
  const auto window = fox_glynn(mean, epsilon);
  const double below = window.left == 0 ? 0.0 : poisson_cdf(window.left - 1, mean);
  const double inside = poisson_cdf(window.right, mean) - below;
  EXPECT_GE(inside, 1.0 - epsilon) << "mean=" << mean;
}

TEST_P(FoxGlynnMeans, WindowIsNotAbsurdlyWide) {
  const double mean = GetParam();
  const auto window = fox_glynn(mean, 1e-12);
  // O(sqrt(mean) * log(1/eps)) width, with a generous constant.
  const double width = static_cast<double>(window.right - window.left + 1);
  EXPECT_LT(width, 60.0 * std::sqrt(mean + 1.0) + 120.0) << "mean=" << mean;
}

INSTANTIATE_TEST_SUITE_P(Means, FoxGlynnMeans,
                         ::testing::Values(0.05, 0.7, 3.0, 17.5, 32.0, 33.0, 150.0, 2500.0,
                                           40000.0));

TEST(FoxGlynn, HugeMeanStaysFiniteAndNormalized) {
  const auto window = fox_glynn(5e6, 1e-10);
  EXPECT_GT(window.total_weight, 0.0);
  EXPECT_TRUE(std::isfinite(window.total_weight));
  double total = 0.0;
  for (std::size_t i = 0; i < window.weights.size(); ++i) total += window.probability(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The window brackets the mean.
  EXPECT_LT(window.left, 5e6);
  EXPECT_GT(window.right, 5e6);
}

// Extreme means (q*t in 1e4..1e6) are the regime the million-state
// benchmarks drive the window into. Pin the overflow/denormal guards: every
// weight finite and non-negative, the mode weight agreeing with the stable
// pmf, and the window still conserving the requested Poisson mass.
class FoxGlynnExtremeMeans : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnExtremeMeans, GuardsKeepWeightsFiniteAndMassConserved) {
  const double mean = GetParam();
  const double epsilon = 1e-12;
  const auto window = fox_glynn(mean, epsilon);
  EXPECT_TRUE(std::isfinite(window.total_weight));
  EXPECT_GT(window.total_weight, 0.0);
  for (std::size_t i = 0; i < window.weights.size(); ++i) {
    const double w = window.weights[i];
    EXPECT_TRUE(std::isfinite(w)) << "mean=" << mean << " offset=" << i;
    EXPECT_GE(w, 0.0) << "mean=" << mean << " offset=" << i;
  }

  const auto mode = static_cast<std::size_t>(mean);
  ASSERT_GE(mode, window.left);
  ASSERT_LE(mode, window.right);
  const double exact_mode = poisson_pmf(mode, mean);
  EXPECT_NEAR(window.probability(mode - window.left) / exact_mode, 1.0, 1e-9)
      << "mean=" << mean;

  // Mass conservation: the normalized weights sum to 1 and the window itself
  // holds at least 1 - epsilon of the true Poisson mass.
  double normalized = 0.0;
  for (std::size_t i = 0; i < window.weights.size(); ++i) {
    normalized += window.probability(i);
  }
  EXPECT_NEAR(normalized, 1.0, 1e-12) << "mean=" << mean;
  const double below = window.left == 0 ? 0.0 : poisson_cdf(window.left - 1, mean);
  const double inside = poisson_cdf(window.right, mean) - below;
  EXPECT_GE(inside, 1.0 - 1e-9) << "mean=" << mean;
}

INSTANTIATE_TEST_SUITE_P(ExtremeMeans, FoxGlynnExtremeMeans,
                         ::testing::Values(1.0e4, 2.5e5, 1.0e6));

TEST(FoxGlynn, TinyEpsilonHitsDenormalGuardNotUnderflow) {
  // With an extreme mean and a very small epsilon the edge recurrences would
  // historically walk into denormals; the guard stops them while keeping the
  // kept weights positive and the mode anchored.
  const auto window = fox_glynn(1.0e6, 1e-300);
  EXPECT_TRUE(std::isfinite(window.total_weight));
  EXPECT_GT(window.total_weight, 0.0);
  const auto mode = static_cast<std::size_t>(1.0e6);
  EXPECT_GT(window.probability(mode - window.left), 0.0);
  for (const double w : window.weights) {
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GE(w, 0.0);
  }
}

TEST(FoxGlynn, RejectsBadArguments) {
  EXPECT_THROW(fox_glynn(-1.0, 1e-6), std::invalid_argument);
  EXPECT_THROW(fox_glynn(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(fox_glynn(1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::numeric
