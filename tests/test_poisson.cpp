#include "numeric/poisson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "oracle/numeric_reference.hpp"

namespace csrlmrm::numeric {
namespace {

TEST(Poisson, ZeroMeanIsPointMassAtZero) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

TEST(Poisson, MatchesThesisRecursion) {
  // P_0 = e^{-m}, P_i = (m/i) P_{i-1} (section 4.6.2).
  const double mean = 3.7;
  double recursive = std::exp(-mean);
  for (std::size_t i = 0; i <= 25; ++i) {
    EXPECT_NEAR(poisson_pmf(i, mean), recursive, 1e-14) << "at i=" << i;
    recursive *= mean / static_cast<double>(i + 1);
  }
}

TEST(Poisson, PmfSumsToOne) {
  const double mean = 12.0;
  double total = 0.0;
  for (std::size_t i = 0; i <= 200; ++i) total += poisson_pmf(i, mean);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Poisson, StableForHugeMeans) {
  // The naive recursion underflows at e^{-2000}; the log-domain form must
  // still give usable masses near the mode.
  const double mean = 2000.0;
  const double at_mode = poisson_pmf(2000, mean);
  EXPECT_GT(at_mode, 0.0);
  EXPECT_NEAR(at_mode, 1.0 / std::sqrt(2.0 * 3.14159265358979 * mean), 1e-4);
}

TEST(Poisson, RejectsInvalidMean) {
  EXPECT_THROW(poisson_pmf(0, -1.0), std::invalid_argument);
  EXPECT_THROW(poisson_pmf(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Poisson, CdfIsMonotone) {
  const double mean = 5.0;
  double prev = 0.0;
  for (std::size_t i = 0; i <= 30; ++i) {
    const double c = poisson_cdf(i, mean);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-10);
}

TEST(Poisson, SequenceMatchesPointwisePmf) {
  // The tail table's masses are the sequence the class-DP sweep reads level
  // by level: bit for bit the pointwise pmf, inside and past the table.
  for (const double mean : {0.0, 4.2, 1e4}) {
    const SharedPoissonTail table(mean, 20);
    for (std::size_t i = 0; i <= 40; ++i) {
      const double entry = table.pmf(i);
      const double pointwise = poisson_pmf(i, mean);
      EXPECT_EQ(std::memcmp(&entry, &pointwise, sizeof(double)), 0)
          << "mean " << mean << " n " << i << ": " << entry << " vs " << pointwise;
    }
  }
}

TEST(Poisson, TruncationPointCapturesMass) {
  const double mean = 8.0;
  const double epsilon = 1e-10;
  const std::size_t n = poisson_truncation_point(mean, epsilon);
  EXPECT_GE(poisson_cdf(n, mean), 1.0 - epsilon);
  if (n > 0) {
    EXPECT_LT(poisson_cdf(n - 1, mean), 1.0 - epsilon);
  }
}

TEST(Poisson, TruncationPointRejectsBadEpsilon) {
  EXPECT_THROW(poisson_truncation_point(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(poisson_truncation_point(1.0, 1.0), std::invalid_argument);
}

TEST(Poisson, TruncationPointRejectsAMeanWhoseCapPasses2To53) {
  // At mean 1e30 the cap used to be converted to std::size_t out of range.
  EXPECT_THROW(poisson_truncation_point(1e30, 1e-10), std::invalid_argument);
  EXPECT_THROW(poisson_truncation_point(kMaxPoissonWindowEnd, 1e-10), std::invalid_argument);
  EXPECT_THROW(poisson_hard_cap(1e30), std::invalid_argument);
}

TEST(PoissonTail, MatchesDirectCdf) {
  const SharedPoissonTail table(6.5, 12);
  EXPECT_NEAR(table.cdf(10), poisson_cdf(10, 6.5), 1e-14);
  EXPECT_NEAR(table.cdf(3), poisson_cdf(3, 6.5), 1e-14);
  // Past the precomputed range the table sums the remaining masses directly.
  EXPECT_NEAR(table.cdf(25), poisson_cdf(25, 6.5), 1e-14);
}

TEST(PoissonTail, TailComplementsCdf) {
  const SharedPoissonTail table(4.0, 20);
  EXPECT_DOUBLE_EQ(table.tail(0), 1.0);
  EXPECT_NEAR(table.tail(5), 1.0 - poisson_cdf(4, 4.0), 1e-14);
  EXPECT_GE(table.tail(100), 0.0);
}

TEST(PoissonTail, CdfIsTheClampedPrefixSumOfThePmfBitwise) {
  // The occupation series reads its tail weights from this table, so its
  // entries must be exactly the scalar sequence min(1, cdf(n-1) + pmf(n)).
  for (const double mean : {0.0, 0.5, 6.5, 90.0, 1e4}) {
    const std::size_t n_max =
        static_cast<std::size_t>(mean + 40.0 * std::sqrt(mean + 1.0)) + 64;
    const SharedPoissonTail table(mean, n_max);
    ASSERT_EQ(table.table_size(), n_max + 1);
    double prefix = 0.0;
    for (std::size_t n = 0; n <= n_max; ++n) {
      prefix = n == 0 ? poisson_pmf(0, mean) : std::min(prefix + poisson_pmf(n, mean), 1.0);
      const double entry = table.cdf(n);
      ASSERT_EQ(std::memcmp(&entry, &prefix, sizeof(double)), 0)
          << "mean " << mean << " n " << n << ": " << entry << " vs " << prefix;
    }
  }
}

}  // namespace
}  // namespace csrlmrm::numeric
