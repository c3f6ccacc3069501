// The Omega recursion (Algorithm 4.8) against closed forms, symmetry
// properties, and the thesis's worked Example 4.4.
#include "numeric/omega.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "oracle/numeric_reference.hpp"

namespace csrlmrm::numeric {
namespace {

TEST(Omega, EmptySumComparesZeroAgainstThreshold) {
  EXPECT_DOUBLE_EQ(omega(0.5, {1.0}, {0}), 1.0);
  EXPECT_DOUBLE_EQ(omega(-0.5, {1.0}, {0}), 0.0);
}

TEST(Omega, AllCoefficientsBelowThresholdGivesOne) {
  EXPECT_DOUBLE_EQ(omega(5.0, {4.0, 2.0, 0.0}, {3, 2, 1}), 1.0);
}

TEST(Omega, AllCoefficientsAboveThresholdGivesZero) {
  EXPECT_DOUBLE_EQ(omega(1.0, {4.0, 2.0}, {3, 2}), 0.0);
}

TEST(Omega, TotalOfAllSpacingsIsOne) {
  // sum of all n+1 spacings is identically 1, so Pr{sum <= r} is a step at 1.
  EXPECT_DOUBLE_EQ(omega(0.999, {1.0}, {7}), 0.0);
  EXPECT_DOUBLE_EQ(omega(1.0, {1.0}, {7}), 1.0);
}

TEST(Omega, SingleUniformIsLinear) {
  // a * Y1 with one interior point: Y1 ~ U(0,1), so Pr{a Y1 <= r} = r/a.
  const double a = 4.0;
  for (double r : {0.5, 1.0, 2.0, 3.5}) {
    EXPECT_NEAR(omega(r, {a, 0.0}, {1, 1}), r / a, 1e-12) << "r=" << r;
  }
}

TEST(Omega, SumOfTwoUniformsIsIrwinHall) {
  // c = {2,1,0}, k = {1,1,1}: G = 2 Y1 + Y2 = U_(1) + U_(2) = U1 + U2, whose
  // CDF is the Irwin-Hall distribution of order 2.
  EXPECT_NEAR(omega(0.5, {2.0, 1.0, 0.0}, {1, 1, 1}), 0.125, 1e-12);
  EXPECT_NEAR(omega(1.0, {2.0, 1.0, 0.0}, {1, 1, 1}), 0.5, 1e-12);
  EXPECT_NEAR(omega(1.5, {2.0, 1.0, 0.0}, {1, 1, 1}), 0.875, 1e-12);
}

TEST(Omega, ThesisExample44) {
  // r' = 1, c = <5,3,1,0>, k = <1,2,2,2> (Example 4.4); exact value 47/675,
  // cross-checked by Monte Carlo during development.
  EXPECT_NEAR(omega(1.0, {5.0, 3.0, 1.0, 0.0}, {1, 2, 2, 2}), 47.0 / 675.0, 1e-12);
}

TEST(Omega, CoefficientOrderDoesNotMatter) {
  const double a = omega(1.3, {5.0, 3.0, 1.0, 0.0}, {1, 2, 2, 2});
  const double b = omega(1.3, {0.0, 1.0, 3.0, 5.0}, {2, 2, 2, 1});
  EXPECT_NEAR(a, b, 1e-12);
}

TEST(Omega, MonotoneInThreshold) {
  const std::vector<double> c{6.0, 3.5, 1.0, 0.0};
  const SpacingCounts k{2, 3, 1, 2};
  double prev = 0.0;
  for (double r = 0.0; r <= 6.5; r += 0.25) {
    const double value = omega(r, c, k);
    EXPECT_GE(value, prev - 1e-12) << "r=" << r;
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
    prev = value;
  }
}

TEST(Omega, AgreesWithMonteCarlo) {
  // Random-instance cross-check of the full recursion against simulation.
  const std::vector<double> c{4.0, 2.5, 1.0, 0.0};
  const SpacingCounts k{1, 2, 1, 2};  // 6 spacings from 5 points
  const double r = 1.8;

  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const int points = 5;
  long long hits = 0;
  const long long trials = 400000;
  for (long long trial = 0; trial < trials; ++trial) {
    double u[points];
    for (double& x : u) x = uniform(rng);
    std::sort(u, u + points);
    double y[points + 1];
    y[0] = u[0];
    for (int i = 1; i < points; ++i) y[i] = u[i] - u[i - 1];
    y[points] = 1.0 - u[points - 1];
    // coefficients laid out per counts: c0 x1, c1 x2, c2 x1, c3 x2
    const double g = 4.0 * y[0] + 2.5 * (y[1] + y[2]) + 1.0 * y[3] + 0.0 * (y[4] + y[5]);
    if (g <= r) ++hits;
  }
  const double estimate = static_cast<double>(hits) / static_cast<double>(trials);
  EXPECT_NEAR(omega(r, c, k), estimate, 5e-3);
}

TEST(OmegaEvaluator, RejectsDuplicateCoefficients) {
  EXPECT_THROW(OmegaEvaluator({1.0, 1.0}, 0.5), std::invalid_argument);
}

TEST(OmegaEvaluator, RejectsEmptyCoefficients) {
  EXPECT_THROW(OmegaEvaluator({}, 0.5), std::invalid_argument);
}

TEST(OmegaEvaluator, RejectsCountSizeMismatch) {
  OmegaEvaluator evaluator({1.0, 0.0}, 0.5);
  std::vector<double> column(2);
  OmegaWork work;
  EXPECT_THROW(evaluator.flow_length(SpacingCounts{1}), std::invalid_argument);
  EXPECT_THROW(evaluator.flow_start(SpacingCounts{1}, column.data(), work), std::invalid_argument);
}

namespace {
// The memoized recursion of Algorithm 4.8 as written: same pivot choice
// (first nonzero class on each side) and the same per-cell factors as the
// forward flow, so the two sum the same positive path products and differ
// only in rounding (flow_rounding_bound below).
class ReferenceOmega {
 public:
  ReferenceOmega(std::vector<double> c, double r) : c_(std::move(c)), r_(r) {
    greater_.resize(c_.size());
    for (std::size_t l = 0; l < c_.size(); ++l) greater_[l] = c_[l] > r_;
  }

  double evaluate(SpacingCounts counts) {
    const bool all_zero =
        std::all_of(counts.begin(), counts.end(), [](auto v) { return v == 0; });
    if (all_zero) return r_ >= 0.0 ? 1.0 : 0.0;
    return evaluate_recursive(counts);
  }

 private:
  double evaluate_recursive(SpacingCounts& counts) {
    std::size_t total_greater = 0;
    std::size_t total_lesser = 0;
    std::size_t pick_greater = c_.size();
    std::size_t pick_lesser = c_.size();
    for (std::size_t l = 0; l < c_.size(); ++l) {
      if (counts[l] == 0) continue;
      if (greater_[l]) {
        total_greater += counts[l];
        if (pick_greater == c_.size()) pick_greater = l;
      } else {
        total_lesser += counts[l];
        if (pick_lesser == c_.size()) pick_lesser = l;
      }
    }
    if (total_greater == 0) return 1.0;
    if (total_lesser == 0) return 0.0;
    if (const auto it = memo_.find(counts); it != memo_.end()) return it->second;
    const double ci = c_[pick_greater];
    const double cj = c_[pick_lesser];
    const double denom = ci - cj;
    --counts[pick_lesser];
    const double without_lesser = evaluate_recursive(counts);
    ++counts[pick_lesser];
    --counts[pick_greater];
    const double without_greater = evaluate_recursive(counts);
    ++counts[pick_greater];
    const double value =
        ((ci - r_) / denom) * without_lesser + ((r_ - cj) / denom) * without_greater;
    memo_.emplace(counts, value);
    return value;
  }

  std::vector<double> c_;
  double r_;
  std::vector<bool> greater_;
  std::map<SpacingCounts, double> memo_;
};
}  // namespace

/// The rounding bound between the forward flow and the memoized recursion.
/// Both use the same per-cell factors, bitwise, and sum the same positive
/// path products; they differ only in the rounding of those products and
/// sums, at most one multiplication and one addition per lattice step on
/// each side. A path has ||k_G|| + ||k_L|| steps, so the two values agree
/// to 4 * (||k_G|| + ||k_L||) units in the last place of the larger, plus
/// an absolute floor for values that underflow.
double flow_rounding_bound(const SpacingCounts& counts, double value) {
  double units = 0.0;
  for (const std::uint32_t count : counts) units += count;
  return 4.0 * units * 0x1p-53 * value + 1e-300;
}

/// Omega(r, counts) from a fresh flow column.
double flow_value(const OmegaEvaluator& evaluator, const SpacingCounts& counts) {
  std::vector<double> column(evaluator.flow_length(counts));
  OmegaWork work;
  return evaluator.flow_start(counts, column.data(), work);
}

TEST(OmegaEvaluator, FlowMatchesMemoizedRecursionWithinTheRoundingBound) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> num_classes(1, 5);
  std::uniform_int_distribution<std::uint32_t> count_dist(0, 6);
  std::uniform_real_distribution<double> coeff_dist(0.0, 10.0);
  std::uniform_real_distribution<double> threshold_dist(-1.0, 11.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int classes = num_classes(rng);
    std::vector<double> c;
    while (static_cast<int>(c.size()) < classes) {
      const double candidate = coeff_dist(rng);
      if (std::find(c.begin(), c.end(), candidate) == c.end()) c.push_back(candidate);
    }
    SpacingCounts counts(c.size());
    for (auto& v : counts) v = count_dist(rng);
    const double r = threshold_dist(rng);
    OmegaEvaluator evaluator(c, r);
    ReferenceOmega reference(c, r);
    const double flow = flow_value(evaluator, counts);
    const double expected = reference.evaluate(counts);
    EXPECT_LE(std::fabs(flow - expected), flow_rounding_bound(counts, std::max(flow, expected)))
        << "trial=" << trial << " r=" << r << " flow=" << flow << " recursion=" << expected;
  }
}

TEST(OmegaEvaluator, ReusedScratchMatchesFreshScratchBitwise) {
  // One flow column carried across count shapes that grow, shrink and flip
  // which side dominates: every value must be bitwise the fresh-column one,
  // whatever the previous call left in the buffer.
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<std::uint32_t> small(0, 3);
  std::uniform_int_distribution<std::uint32_t> large(0, 40);
  std::uniform_real_distribution<double> threshold_dist(-0.5, 5.5);
  const std::vector<double> c{5.0, 3.0, 1.0, 0.0};
  std::vector<double> reused;
  OmegaWork work;
  for (int trial = 0; trial < 300; ++trial) {
    auto& dist = trial % 3 == 0 ? large : small;
    SpacingCounts counts(c.size());
    for (auto& v : counts) v = dist(rng);
    const OmegaEvaluator evaluator(c, threshold_dist(rng));
    reused.resize(std::max(reused.size(), evaluator.flow_length(counts)));
    EXPECT_EQ(evaluator.flow_start(counts, reused.data(), work), flow_value(evaluator, counts))
        << "trial=" << trial;
  }
}

// ------------------------------------------------------------ forward flow

/// Coefficient sets, each ending in the zero coefficient of eq. (4.10).
const std::vector<std::vector<double>>& flow_coefficient_sets() {
  static const std::vector<std::vector<double>> sets = {
      {2.0, 0.0}, {5.0, 3.0, 1.0, 0.0}, {7.5, 4.0, 2.25, 1.0, 0.0}};
  return sets;
}

TEST(OmegaFlow, StartMatchesTheRecursionWithinTheRoundingBoundOnAGridOfShapes) {
  const std::vector<std::uint32_t> grid{0, 1, 3, 8};
  std::size_t compared = 0;
  for (const std::vector<double>& c : flow_coefficient_sets()) {
    for (const double r : {0.0, 0.3, 1.0, 1.7, 2.5, 4.9, 7.6}) {
      const OmegaEvaluator evaluator(c, r);
      ReferenceOmega reference(c, r);
      SpacingCounts counts(c.size(), 0);
      // Every count vector over `grid` (an odometer over the classes).
      for (bool more = true; more;) {
        std::vector<double> column(evaluator.flow_length(counts));
        OmegaWork work;
        const double expected = reference.evaluate(counts);
        const double flow = evaluator.flow_start(counts, column.data(), work);
        EXPECT_LE(std::fabs(flow - expected),
                  flow_rounding_bound(counts, std::max(flow, expected)))
            << "r=" << r << " classes=" << c.size() << " flow=" << flow
            << " recursion=" << expected;
        EXPECT_EQ(work.evaluations, 1u);
        ++compared;
        more = false;
        for (std::size_t l = 0; l < counts.size() && !more; ++l) {
          const auto at = std::find(grid.begin(), grid.end(), counts[l]);
          if (at + 1 != grid.end()) {
            counts[l] = *(at + 1);
            more = true;
          } else {
            counts[l] = 0;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 7u * (16u + 256u));
}

TEST(OmegaFlow, ExtensionsAreBitwiseFreshStartsAndTrackTheRecursion) {
  // A chain of 30 last-class extensions from random counts: each value is
  // bitwise the flow started afresh at the extended counts, so a chain's
  // value does not depend on where it started, and stays within the
  // rounding bound of the memoized recursion.
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<std::uint32_t> count_dist(0, 6);
  std::uniform_real_distribution<double> threshold_dist(0.0, 8.0);
  for (int trial = 0; trial < 60; ++trial) {
    const std::vector<double>& c = flow_coefficient_sets()[trial % 3];
    const double r = threshold_dist(rng);
    const OmegaEvaluator evaluator(c, r);
    ReferenceOmega reference(c, r);
    SpacingCounts counts(c.size());
    for (auto& v : counts) v = count_dist(rng);
    counts.back() = std::max<std::uint32_t>(counts.back(), 1);
    std::vector<double> chain_column(evaluator.flow_length(counts));
    std::vector<double> fresh_column(chain_column.size());
    OmegaWork work;
    double chain = evaluator.flow_start(counts, chain_column.data(), work);
    for (int step = 0; step < 30; ++step) {
      ++counts.back();
      chain = evaluator.flow_extend(counts, chain_column.data(), chain, work);
      OmegaWork fresh_work;
      EXPECT_EQ(chain, evaluator.flow_start(counts, fresh_column.data(), fresh_work))
          << "trial=" << trial << " step=" << step;
      EXPECT_EQ(chain_column, fresh_column) << "trial=" << trial << " step=" << step;
      const double expected = reference.evaluate(counts);
      EXPECT_LE(std::fabs(chain - expected),
                flow_rounding_bound(counts, std::max(chain, expected)))
          << "trial=" << trial << " step=" << step;
    }
    EXPECT_EQ(work.evaluations, 1u);
    EXPECT_EQ(work.chain_steps, 30u);
  }
}

TEST(OmegaFlow, ExtensionNeedsALesserSideLastCoefficientWithAUnit) {
  // With r < 0 the zero coefficient is greater-side: its units do not
  // extend the lesser staircase, so a chain cannot run there (Omega is 0).
  const OmegaEvaluator below({3.0, 0.0}, -0.5);
  std::vector<double> column(4);
  OmegaWork work;
  EXPECT_EQ(below.flow_start(SpacingCounts{2, 2}, column.data(), work), 0.0);
  EXPECT_THROW(below.flow_extend(SpacingCounts{2, 3}, column.data(), 0.0, work),
               std::invalid_argument);
  // A chain extends a flow that already has a last-class unit: counts
  // (2, 1) after the step means the flow had none.
  const OmegaEvaluator above({3.0, 0.0}, 1.0);
  EXPECT_EQ(above.flow_start(SpacingCounts{2, 0}, column.data(), work), 0.0);
  EXPECT_THROW(above.flow_extend(SpacingCounts{2, 1}, column.data(), 0.0, work),
               std::invalid_argument);
}

TEST(Omega, DeepCountsStayInUnitInterval) {
  // Numerical-stability spot check: only multiplications in [0,1] happen, so
  // a 300-residence query remains a probability.
  const double value = omega(0.7, {2.0, 1.0, 0.0}, {100, 100, 100});
  EXPECT_GE(value, 0.0);
  EXPECT_LE(value, 1.0);
}

}  // namespace
}  // namespace csrlmrm::numeric
