#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "oracle/linalg_reference.hpp"

namespace csrlmrm::linalg {
namespace {

TEST(VectorOps, LinfDistanceFindsLargestGap) {
  EXPECT_DOUBLE_EQ(linf_distance({1.0, 2.0}, {1.5, 0.0}), 2.0);
}

TEST(VectorOps, SumAddsEntries) { EXPECT_DOUBLE_EQ(sum({0.25, 0.5, 0.125}), 0.875); }

TEST(VectorOps, NormalizeProducesDistribution) {
  std::vector<double> v{1.0, 3.0};
  normalize_to_distribution(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  EXPECT_TRUE(is_distribution(v));
}

TEST(VectorOps, NormalizeRejectsZeroVector) {
  std::vector<double> v{0.0, 0.0};
  EXPECT_THROW(normalize_to_distribution(v), std::domain_error);
}

TEST(VectorOps, IsDistributionRejectsNegativeEntries) {
  EXPECT_FALSE(is_distribution({-0.5, 1.5}));
}

TEST(VectorOps, IsDistributionRejectsWrongSum) { EXPECT_FALSE(is_distribution({0.4, 0.4})); }

TEST(VectorOps, IsDistributionAcceptsWithinTolerance) {
  EXPECT_TRUE(is_distribution({0.5, 0.5 + 1e-12}));
}

}  // namespace
}  // namespace csrlmrm::linalg
