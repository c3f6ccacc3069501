// The uniformization series' Poisson window (numeric::poisson_window): the
// truncation points against an independent long-double reference, and its
// masses against poisson_pmf. The suites keep their Fox-Glynn names: the
// window is the one the Fox-Glynn weights of the series used.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "numeric/poisson.hpp"

namespace csrlmrm::numeric {
namespace {

long double log_pmf_reference(std::size_t n, long double mean) {
  int sign = 0;
  const long double dn = static_cast<long double>(n);
  return dn * std::log(mean) - mean - ::lgammal_r(dn + 1.0L, &sign);
}

/// The Poisson(mean) mass outside [left, right] in long double: each tail is
/// anchored at its window edge in the log domain and summed outward by the
/// ratio recurrence until its terms no longer change the sum.
long double outside_mass_reference(std::size_t left, std::size_t right, double mean) {
  const long double m = mean;
  long double below = 0.0L;
  if (left > 0) {
    long double term = std::exp(log_pmf_reference(left - 1, m));
    for (std::size_t k = left - 1;; --k) {
      below += term;
      if (k == 0 || term < below * 1e-22L) break;
      term *= static_cast<long double>(k) / m;
    }
  }
  long double above = 0.0L;
  long double term = std::exp(log_pmf_reference(right + 1, m));
  for (std::size_t k = right + 1; term > 0.0L && term >= above * 1e-22L; ++k) {
    above += term;
    term *= m / static_cast<long double>(k + 1);
  }
  return below + above;
}

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(FoxGlynn, ZeroMeanIsPointMass) {
  const auto window = poisson_window(0.0, 1e-10);
  EXPECT_EQ(window.left, 0u);
  EXPECT_EQ(window.right, 0u);
  ASSERT_EQ(window.masses.size(), 1u);
  EXPECT_DOUBLE_EQ(window.masses[0], 1.0);
}

TEST(FoxGlynn, RejectsAMeanWhoseWindowEndsPast2To53) {
  // At mean 1e30 the window ends used to be converted to std::size_t out of
  // range, and the garbage window answered 0 for every start.
  EXPECT_THROW(poisson_window(1e30, 1e-10), std::invalid_argument);
  EXPECT_THROW(poisson_window(kMaxPoissonWindowEnd, 1e-10), std::invalid_argument);
}

class FoxGlynnMeans : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnMeans, WeightsMatchStablePmf) {
  // The series weights are the log-domain masses themselves, unnormalized.
  const double mean = GetParam();
  const auto window = poisson_window(mean, 1e-12);
  ASSERT_EQ(window.masses.size(), window.right - window.left + 1);
  for (std::size_t k = window.left; k <= window.right; ++k) {
    ASSERT_TRUE(bitwise_equal(window.masses[k - window.left], poisson_pmf(k, mean)))
        << "mean=" << mean << " k=" << k;
  }
}

TEST_P(FoxGlynnMeans, WindowCapturesRequestedMass) {
  const double mean = GetParam();
  for (const double epsilon : {1e-6, 1e-9, 1e-12}) {
    const auto window = poisson_window(mean, epsilon);
    EXPECT_LE(outside_mass_reference(window.left, window.right, mean),
              static_cast<long double>(epsilon))
        << "mean=" << mean << " epsilon=" << epsilon;
  }
}

TEST_P(FoxGlynnMeans, RoundingBoundCoversTheMasses) {
  // The masses are not normalized, so their own rounding enters the series'
  // enclosure: the window's bound must cover their distance to the
  // long-double masses.
  const double mean = GetParam();
  const auto window = poisson_window(mean, 1e-12);
  long double distance = 0.0L;
  for (std::size_t k = window.left; k <= window.right; ++k) {
    const long double exact = std::exp(log_pmf_reference(k, mean));
    distance += std::abs(static_cast<long double>(window.masses[k - window.left]) - exact);
  }
  EXPECT_LE(distance, static_cast<long double>(window.rounding)) << "mean=" << mean;
  EXPECT_LT(window.rounding, 1e-7) << "mean=" << mean;
}

TEST_P(FoxGlynnMeans, WindowIsNotAbsurdlyWide) {
  const double mean = GetParam();
  const auto window = poisson_window(mean, 1e-12);
  // O(sqrt(mean) * log(1/eps)) width, with a generous constant.
  const double width = static_cast<double>(window.right - window.left + 1);
  EXPECT_LT(width, 60.0 * std::sqrt(mean + 1.0) + 120.0) << "mean=" << mean;
}

INSTANTIATE_TEST_SUITE_P(Means, FoxGlynnMeans,
                         ::testing::Values(0.05, 0.7, 3.0, 17.5, 32.0, 33.0, 150.0, 2500.0,
                                           1.0e4, 40000.0, 2.5e5, 1.0e6));

TEST(FoxGlynn, HugeMeanMassesStayFiniteAndSumToOne) {
  const auto window = poisson_window(5e6, 1e-10);
  double total = 0.0;
  for (const double mass : window.masses) {
    ASSERT_TRUE(std::isfinite(mass));
    total += mass;
  }
  // Unnormalized: the sum is 1 less the outside mass, up to the rounding of
  // the log-domain masses, which grows with the mean.
  EXPECT_NEAR(total, 1.0, 1e-8);
  // The window brackets the mean.
  EXPECT_LT(window.left, 5e6);
  EXPECT_GT(window.right, 5e6);
}

// Extreme means (q*t in 1e4..1e6) are the regime the million-state
// benchmarks drive the window into. Every mass is finite and non-negative,
// the mode mass is positive, and the masses sum to 1 up to the outside mass
// and the rounding of the log-domain evaluation.
class FoxGlynnExtremeMeans : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnExtremeMeans, GuardsKeepWeightsFiniteAndMassConserved) {
  const double mean = GetParam();
  const double epsilon = 1e-12;
  const auto window = poisson_window(mean, epsilon);
  double total = 0.0;
  for (std::size_t i = 0; i < window.masses.size(); ++i) {
    const double mass = window.masses[i];
    EXPECT_TRUE(std::isfinite(mass)) << "mean=" << mean << " offset=" << i;
    EXPECT_GE(mass, 0.0) << "mean=" << mean << " offset=" << i;
    total += mass;
  }
  const auto mode = static_cast<std::size_t>(mean);
  ASSERT_GE(mode, window.left);
  ASSERT_LE(mode, window.right);
  EXPECT_GT(window.masses[mode - window.left], 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9) << "mean=" << mean;
}

INSTANTIATE_TEST_SUITE_P(ExtremeMeans, FoxGlynnExtremeMeans,
                         ::testing::Values(1.0e4, 2.5e5, 1.0e6));

TEST(FoxGlynn, TinyEpsilonKeepsMassesFiniteAndNonNegative) {
  // An extreme mean with a tiny epsilon stretches the window deep into the
  // tails, where the masses are denormal or zero, never NaN or negative.
  const auto window = poisson_window(1.0e6, 1e-300);
  const auto mode = static_cast<std::size_t>(1.0e6);
  EXPECT_GT(window.masses[mode - window.left], 0.0);
  for (const double mass : window.masses) {
    EXPECT_TRUE(std::isfinite(mass));
    EXPECT_GE(mass, 0.0);
  }
}

TEST(FoxGlynn, RejectsBadArguments) {
  EXPECT_THROW(poisson_window(-1.0, 1e-6), std::invalid_argument);
  EXPECT_THROW(poisson_window(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(poisson_window(1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::numeric
