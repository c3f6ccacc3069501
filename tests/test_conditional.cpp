// RewardStructureContext: the eq. (4.9)/(4.10) wiring from a path signature
// (n, k, j) to an Omega query.
#include "numeric/conditional.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/numeric_reference.hpp"

namespace csrlmrm::numeric {
namespace {

TEST(Conditional, ThresholdMatchesExample44) {
  // Example 4.4: rewards 5>3>1>0, impulses 2>1>0, j = <4,2,0>, t = 5, r = 15
  // gives r' = 15/5 - 0 - (2*4 + 1*2)/5 = 1.
  RewardStructureContext context({5.0, 3.0, 1.0, 0.0}, {2.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(threshold(context, {4, 2, 0}, 5.0, 15.0), 1.0);
}

TEST(Conditional, Example44ConditionalProbability) {
  RewardStructureContext context({5.0, 3.0, 1.0, 0.0}, {2.0, 1.0, 0.0});
  EXPECT_NEAR(conditional_probability(context, {1, 2, 2, 2}, {4, 2, 0}, 5.0, 15.0),
              47.0 / 675.0, 1e-12);
}

TEST(Conditional, SmallestRewardShiftsThreshold) {
  // With r_{K+1} = 2 the baseline accumulation is 2t, subtracted from r/t.
  RewardStructureContext context({5.0, 2.0}, {});
  EXPECT_DOUBLE_EQ(threshold(context, {}, 4.0, 20.0), 20.0 / 4.0 - 2.0);
}

TEST(Conditional, SingleRewardClassIsDeterministic) {
  // All states share reward 3: Y(t) = 3t (+ impulses), so the conditional is
  // an indicator.
  RewardStructureContext context({3.0}, {});
  EXPECT_DOUBLE_EQ(conditional_probability(context, {5}, {}, 2.0, 6.0), 1.0);   // 3*2 <= 6
  EXPECT_DOUBLE_EQ(conditional_probability(context, {5}, {}, 2.0, 5.9), 0.0);   // 3*2 > 5.9
}

TEST(Conditional, ImpulsesConsumeBudgetDeterministically) {
  // Zero state rewards: Y(t) = sum of impulses.
  RewardStructureContext context({0.0}, {4.0, 1.0});
  EXPECT_DOUBLE_EQ(conditional_probability(context, {3}, {2, 1}, 1.0, 9.0), 1.0);  // 9 <= 9
  EXPECT_DOUBLE_EQ(conditional_probability(context, {3}, {2, 1}, 1.0, 8.9), 0.0);  // 9 > 8.9
}

TEST(Conditional, TwoClassPathMatchesUniformClosedForm) {
  // One residence at reward a, k more at reward 0, n = k interior points:
  // Y(t) = a * t * U_(1) (the first order statistic of k uniforms), so
  // Pr{Y <= r} = 1 - (1 - r/(a t))^k.
  const double a = 2.0;
  RewardStructureContext context({a, 0.0}, {});
  const double t = 3.0;
  const double r = 1.5;
  const unsigned k = 4;
  const double u = r / (a * t);
  const double expected = 1.0 - std::pow(1.0 - u, static_cast<double>(k));
  EXPECT_NEAR(conditional_probability(context, {1, k}, {}, t, r), expected, 1e-12);
}

TEST(Conditional, EvaluatorsAreSharedPerThreshold) {
  RewardStructureContext context({2.0, 0.0}, {1.0, 0.0});
  // Same impulse signature -> same r' -> one evaluator.
  conditional_probability(context, {1, 1}, {1, 0}, 1.0, 1.5);
  conditional_probability(context, {2, 1}, {1, 0}, 1.0, 1.5);
  EXPECT_EQ(context.evaluator_count(), 1u);
  // Different impulse count changes r' -> second evaluator.
  conditional_probability(context, {1, 1}, {0, 1}, 1.0, 1.5);
  EXPECT_EQ(context.evaluator_count(), 2u);
}

TEST(Conditional, RejectsMalformedInput) {
  EXPECT_THROW(RewardStructureContext({}, {}), std::invalid_argument);
  EXPECT_THROW(RewardStructureContext({1.0, 2.0}, {}), std::invalid_argument);  // ascending
  EXPECT_THROW(RewardStructureContext({2.0, 2.0}, {}), std::invalid_argument);  // duplicate
  RewardStructureContext context({1.0, 0.0}, {});
  EXPECT_THROW(conditional_probability(context, {1}, {}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(conditional_probability(context, {0, 0}, {}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(conditional_probability(context, {1, 1}, {}, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(conditional_probability(context, {1, 1}, {}, 1.0, -1.0), std::invalid_argument);
}

TEST(Conditional, CanonicalThresholdSnapsRoundingNoise) {
  // Thresholds that agree mathematically but differ by floating-point
  // rounding must canonicalize to one representative...
  const double r_prime = 1.0 / 3.0;
  const double jittered = std::nextafter(r_prime, 1.0);
  EXPECT_EQ(canonical_threshold(r_prime), canonical_threshold(jittered));
  // ...idempotently...
  EXPECT_EQ(canonical_threshold(canonical_threshold(r_prime)), canonical_threshold(r_prime));
  // ...while zero and non-finite values pass through untouched and genuinely
  // distinct thresholds stay distinct (the snap keeps 40 mantissa bits).
  EXPECT_EQ(canonical_threshold(0.0), 0.0);
  EXPECT_TRUE(std::isinf(canonical_threshold(HUGE_VAL)));
  EXPECT_NE(canonical_threshold(1.0), canonical_threshold(1.0 + 1e-6));
}

TEST(Conditional, EvaluatorCacheIsRobustToThresholdRoundingNoise) {
  // Regression for the quantized evaluators_ key: querying with a threshold
  // perturbed by one ulp — as arises when two impulse signatures with equal
  // totals compute r' along different floating-point paths — must hit the
  // same cached evaluator (count stays 1) and return bitwise the same
  // probability.
  RewardStructureContext context({2.0, 1.0, 0.0}, {1.0, 0.0});
  const SpacingCounts k{1, 2, 1};
  const double r_prime = threshold(context, {2, 1}, 3.0, 4.0);
  const double exact = context.conditional_probability_for_threshold(k, r_prime);
  EXPECT_EQ(context.evaluator_count(), 1u);
  const double jittered =
      context.conditional_probability_for_threshold(k, std::nextafter(r_prime, 1e9));
  EXPECT_EQ(context.evaluator_count(), 1u);
  EXPECT_EQ(jittered, exact);  // same evaluator, same memo table -> same bits
  // A genuinely different threshold still builds its own evaluator.
  context.conditional_probability_for_threshold(k, r_prime + 0.25);
  EXPECT_EQ(context.evaluator_count(), 2u);
}

TEST(Conditional, ThresholdFormGroupsEquivalentImpulseSignatures) {
  // conditional_probability(k, j, t, r) and the (k, r')-grouped entry point
  // used by the signature-class DP engine must agree bitwise: the j
  // dependence is entirely inside r' (eq. 4.9).
  RewardStructureContext context({3.0, 1.0, 0.0}, {2.0, 1.0, 0.0});
  const SpacingCounts k{2, 1, 1};
  const double t = 2.5;
  const double r = 6.0;
  // <1,0> and <0,2> carry the same impulse total 2 -> same r' -> one shared
  // evaluation for both signatures.
  const SpacingCounts j_voter{1, 0, 2};
  const SpacingCounts j_modules{0, 2, 1};
  const double via_j = conditional_probability(context, k, j_voter, t, r);
  EXPECT_EQ(conditional_probability(context, k, j_modules, t, r), via_j);
  EXPECT_EQ(context.conditional_probability_for_threshold(
                k, threshold(context, j_voter, t, r)),
            via_j);
  EXPECT_EQ(context.evaluator_count(), 1u);
}

TEST(Conditional, MonotoneInRewardBound) {
  RewardStructureContext context({4.0, 1.0, 0.0}, {2.0, 0.0});
  double prev = 0.0;
  for (double r = 0.0; r <= 14.0; r += 0.5) {
    const double p = conditional_probability(context, {2, 3, 2}, {1, 2}, 3.0, r);
    EXPECT_GE(p, prev - 1e-12) << "r=" << r;
    prev = p;
  }
}

}  // namespace
}  // namespace csrlmrm::numeric
