// The error-aware result layer: rigorous intervals and three-valued
// threshold comparisons (checker/verdict.hpp).
#include "checker/verdict.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace csrlmrm::checker {
namespace {

TEST(ProbabilityBound, PointIntervalHasZeroWidth) {
  const auto bound = ProbabilityBound::point(0.25);
  EXPECT_DOUBLE_EQ(bound.lower, 0.25);
  EXPECT_DOUBLE_EQ(bound.upper, 0.25);
  EXPECT_DOUBLE_EQ(bound.width(), 0.0);
  EXPECT_TRUE(bound.contains(0.25));
  EXPECT_FALSE(bound.contains(0.250001));
}

TEST(ProbabilityBound, FromPointErrorClampsToUnitInterval) {
  const auto one_sided = ProbabilityBound::from_point_error(0.9, 0.0, 0.3);
  EXPECT_DOUBLE_EQ(one_sided.lower, 0.9);
  EXPECT_DOUBLE_EQ(one_sided.upper, 1.0);  // 1.2 clamped

  const auto two_sided = ProbabilityBound::from_point_error(0.05, 0.1, 0.1);
  EXPECT_DOUBLE_EQ(two_sided.lower, 0.0);  // -0.05 clamped
  EXPECT_DOUBLE_EQ(two_sided.upper, 0.15);
}

TEST(ProbabilityBound, TruncatingEnginesAreOneSided) {
  // Fox-Glynn / DFPG truncation only loses mass: the truth lies above the
  // computed value.
  const auto bound = ProbabilityBound::from_point_error(0.4, 0.0, 1e-3);
  EXPECT_DOUBLE_EQ(bound.lower, 0.4);
  EXPECT_DOUBLE_EQ(bound.upper, 0.401);
}

TEST(ProbabilityBound, OverlapsAndHull) {
  const ProbabilityBound a{0.2, 0.5};
  const ProbabilityBound b{0.4, 0.7};
  const ProbabilityBound c{0.6, 0.9};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
  // Touching endpoints count as overlapping (closed intervals).
  const ProbabilityBound left{0.0, 0.5};
  const ProbabilityBound right{0.5, 1.0};
  EXPECT_TRUE(left.overlaps(right));
}

TEST(CompareBound, PointValueReducesToTwoValuedComparison) {
  const auto p = ProbabilityBound::point(0.5);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kGreaterEqual, 0.5), Verdict::kSat);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kGreater, 0.5), Verdict::kUnsat);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kLessEqual, 0.5), Verdict::kSat);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kLess, 0.5), Verdict::kUnsat);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kGreater, 0.4), Verdict::kSat);
  EXPECT_EQ(compare_bound(p, logic::Comparison::kLess, 0.4), Verdict::kUnsat);
}

TEST(CompareBound, StraddlingIntervalIsUnknown) {
  const ProbabilityBound value{0.45, 0.55};
  for (const auto op : {logic::Comparison::kLess, logic::Comparison::kLessEqual,
                        logic::Comparison::kGreater, logic::Comparison::kGreaterEqual}) {
    EXPECT_EQ(compare_bound(value, op, 0.5), Verdict::kUnknown) << logic::to_string(op);
  }
}

TEST(CompareBound, DecidedWhenThresholdOutsideTheInterval) {
  const ProbabilityBound value{0.45, 0.55};
  EXPECT_EQ(compare_bound(value, logic::Comparison::kGreater, 0.4), Verdict::kSat);
  EXPECT_EQ(compare_bound(value, logic::Comparison::kGreater, 0.6), Verdict::kUnsat);
  EXPECT_EQ(compare_bound(value, logic::Comparison::kLess, 0.6), Verdict::kSat);
  EXPECT_EQ(compare_bound(value, logic::Comparison::kLess, 0.4), Verdict::kUnsat);
}

TEST(CompareBound, ThresholdAtAnEndpointRespectsStrictness) {
  const ProbabilityBound value{0.45, 0.55};
  // Every value in [0.45, 0.55] is >= 0.45, so the verdict is decided even
  // though the threshold touches the interval.
  EXPECT_EQ(compare_bound(value, logic::Comparison::kGreaterEqual, 0.45), Verdict::kSat);
  // But "strictly greater than 0.45" fails exactly at the lower endpoint.
  EXPECT_EQ(compare_bound(value, logic::Comparison::kGreater, 0.45), Verdict::kUnknown);
  EXPECT_EQ(compare_bound(value, logic::Comparison::kLessEqual, 0.55), Verdict::kSat);
  EXPECT_EQ(compare_bound(value, logic::Comparison::kLess, 0.55), Verdict::kUnknown);
}

TEST(CompareBound, InfiniteRewardValuesCompare) {
  // Reachability rewards may be +infinity (target not almost surely hit).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(compare_bound(ProbabilityBound::point(inf), logic::Comparison::kGreater, 1e12),
            Verdict::kSat);
  EXPECT_EQ(compare_bound(ProbabilityBound{3.0, inf}, logic::Comparison::kLess, 10.0),
            Verdict::kUnknown);
  // Unlike NaN, an infinite value is decided both ways.
  EXPECT_EQ(compare_bound(ProbabilityBound::point(inf), logic::Comparison::kLess, 1e12),
            Verdict::kUnsat);
}

// A NaN endpoint compares false on both sides of every comparison; read
// naively that is "no value satisfies it", i.e. UNSAT. The interval encloses
// nothing, so the verdict must be UNKNOWN under all four comparisons.
TEST(CompareBound, NanEndpointIsUnknown) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ProbabilityBound nan_lower{nan, 0.2};
  const ProbabilityBound nan_upper{0.2, nan};
  const ProbabilityBound nan_both{nan, nan};
  for (const auto op : {logic::Comparison::kLess, logic::Comparison::kLessEqual,
                        logic::Comparison::kGreater, logic::Comparison::kGreaterEqual}) {
    EXPECT_EQ(compare_bound(nan_lower, op, 0.5), Verdict::kUnknown) << logic::to_string(op);
    EXPECT_EQ(compare_bound(nan_upper, op, 0.5), Verdict::kUnknown) << logic::to_string(op);
    EXPECT_EQ(compare_bound(nan_both, op, 0.5), Verdict::kUnknown) << logic::to_string(op);
  }
}

TEST(Verdict, PrintableForms) {
  EXPECT_EQ(ProbabilityBound::point(1.0).to_string().front(), '[');
}

TEST(Verdict, IntervalEndsPrintApartWhenTheyDiffer) {
  // At twelve significant digits both ends read 1, so a warning that the
  // interval straddles the threshold 1 would print [1, 1].
  const ProbabilityBound near_one{0.99999999999960743, 1.0};
  EXPECT_EQ(near_one.to_string(), "[0.9999999999996074, 1]");
  EXPECT_EQ((ProbabilityBound{0.25, std::numeric_limits<double>::infinity()}).to_string(),
            "[0.25, inf]");
}

}  // namespace
}  // namespace csrlmrm::checker
