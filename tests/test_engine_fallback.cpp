// Graceful degradation of the P2 uniformization engine and engine-agnostic
// three-valued verdicts: exhausting the engine's node budget must not abort the
// whole check when a fallback policy is configured, the returned interval
// must still contain the truth, and a threshold inside the error band must
// yield UNKNOWN (not an engine-dependent SAT/UNSAT flip).
#include <gtest/gtest.h>

#include <algorithm>

#include "checker/sat.hpp"
#include "checker/until.hpp"
#include "logic/ast.hpp"
#include "obs/stats.hpp"
#include "oracle/checker_accessors.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm::checker {
namespace {

/// A three-state cycle with integer state rewards (so the discretization
/// fallback is always feasible) and no impulse rewards. a-states 0 and 1,
/// b-state 2.
core::Mrm make_cycle() {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  rates.add(2, 0, 1.0);
  core::Labeling labels(3);
  labels.add(0, "a");
  labels.add(1, "a");
  labels.add(2, "b");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), {1.0, 2.0, 1.0});
}

/// The same cycle with an integer impulse reward on 0 -> 1. With impulse
/// rewards present the chooser never discretizes up front (a valid step need
/// not exist), so a starved budget is hit mid-flight by the uniformization
/// engine; the integer impulse keeps the discretization fallback feasible.
core::Mrm make_impulse_cycle() {
  const core::Mrm cycle = make_cycle();
  core::ImpulseRewardsBuilder impulses(3);
  impulses.add(0, 1, 1.0);
  return core::Mrm(cycle.ctmc(), cycle.state_rewards(), impulses.build());
}

const std::vector<bool> kPhi{true, true, false};
const std::vector<bool> kPsi{false, false, true};

CheckerOptions starved(BudgetPolicy policy) {
  CheckerOptions options;
  options.uniformization.truncation_probability = 1e-12;
  options.uniformization.max_nodes = 5;  // guaranteed exhaustion
  options.on_budget_exhausted = policy;
  return options;
}

class EngineFallback : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }
};

TEST_F(EngineFallback, ThrowPolicyRaisesTypedBudgetError) {
  const core::Mrm model = make_cycle();
  EXPECT_THROW(until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                                   starved(BudgetPolicy::kThrow)),
               numeric::NodeBudgetError);
}

TEST_F(EngineFallback, FallbackPolicyDegradesToDiscretizationWithoutThrowing) {
  // Impulse rewards keep the chooser on uniformization, so the starved
  // budget is exhausted mid-flight and every start degrades.
  const core::Mrm model = make_impulse_cycle();

  // Reference 1: the accurate uniformization value (ample budget).
  CheckerOptions accurate;
  accurate.uniformization.truncation_probability = 1e-12;
  const auto exact =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), accurate);

  // Reference 2: the pure discretization engine.
  CheckerOptions disc;
  disc.until_method = UntilMethod::kDiscretization;
  const auto by_disc =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), disc);

  // Degraded run: budget forces the fallback; must not throw.
  const auto degraded =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                          starved(BudgetPolicy::kFallbackToDiscretization));

  // One count per degraded start: the two non-absorbed states 0 and 1.
  EXPECT_EQ(obs::StatsRegistry::global().counter("uniformization.fallbacks"), 2u);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    // The degraded interval still encloses both references' truths.
    EXPECT_TRUE(degraded[s].bound.contains(by_disc[s].probability))
        << "state " << s << ": " << degraded[s].bound.to_string() << " vs discretization "
        << by_disc[s].probability;
    EXPECT_TRUE(degraded[s].bound.overlaps(exact[s].bound))
        << "state " << s << ": " << degraded[s].bound.to_string() << " vs "
        << exact[s].bound.to_string();
    EXPECT_GE(degraded[s].bound.lower, 0.0);
    EXPECT_LE(degraded[s].bound.upper, 1.0);
  }
}

TEST_F(EngineFallback, AutoStarvedRunDiscretizesUpFrontWithoutThrowing) {
  // The chooser sees live * levels > max_nodes before exploring anything
  // and goes straight to discretization (no impulse rewards, degradation
  // allowed) — no NodeBudgetError is ever raised and the choice is recorded.
  const core::Mrm model = make_cycle();
  const CheckerOptions options = starved(BudgetPolicy::kFallbackToDiscretization);
  const auto values =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), options);
  EXPECT_GE(obs::StatsRegistry::global().counter("engine.auto_choice.discretization"), 1u);

  CheckerOptions disc;
  disc.until_method = UntilMethod::kDiscretization;
  const auto by_disc =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), disc);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_TRUE(values[s].bound.contains(by_disc[s].probability))
        << "state " << s << ": " << values[s].bound.to_string();
  }
}

TEST_F(EngineFallback, AutoUnderThrowPolicyFailsLoudlyInsteadOfDegrading) {
  // kThrow disables every degradation, including the chooser's up-front
  // method switch: the starved run must still raise the typed budget error.
  const core::Mrm model = make_cycle();
  const CheckerOptions options = starved(BudgetPolicy::kThrow);
  EXPECT_THROW(
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), options),
      numeric::NodeBudgetError);
}

TEST(AutoEngineChooser, AmpleBudgetPicksClassDpWithTheHybridArmed) {
  // kUniformization means the signature-class DP with the hybrid escalation
  // armed: the checker has no other uniformization engine.
  const core::Mrm model = make_cycle();
  const CheckerOptions options;  // defaults: generous budget
  EXPECT_EQ(choose_until_engine(model, 1.0, options), UntilMethod::kUniformization);
}

TEST(AutoEngineChooser, ProvablyOverBudgetPicksDiscretizationUnlessThrowing) {
  const core::Mrm model = make_cycle();
  CheckerOptions options;
  options.uniformization.max_nodes = 5;
  EXPECT_EQ(choose_until_engine(model, 1.0, options), UntilMethod::kDiscretization);

  options.on_budget_exhausted = BudgetPolicy::kThrow;
  EXPECT_EQ(choose_until_engine(model, 1.0, options), UntilMethod::kUniformization);

  // Impulse rewards may admit no discretization step: never switch up front.
  options.on_budget_exhausted = BudgetPolicy::kFallbackToDiscretization;
  EXPECT_EQ(choose_until_engine(make_impulse_cycle(), 1.0, options),
            UntilMethod::kUniformization);
}

TEST(EngineBoundaries, ZeroTimeHorizonIsTheIndicatorOfPsiOnBothEngines) {
  const core::Mrm model = make_cycle();
  for (const auto method : {UntilMethod::kUniformization, UntilMethod::kDiscretization}) {
    CheckerOptions options;
    options.until_method = method;
    const auto values =
        until_probabilities(model, kPhi, kPsi, logic::up_to(0.0), logic::up_to(1.0), options);
    EXPECT_DOUBLE_EQ(values[2].probability, 1.0);
    EXPECT_DOUBLE_EQ(values[0].probability, 0.0);
    EXPECT_DOUBLE_EQ(values[1].probability, 0.0);
    EXPECT_TRUE(values[2].bound.contains(1.0));
    EXPECT_LE(values[0].bound.width(), 1e-12);
  }
}

TEST(EngineBoundaries, ZeroRewardBoundScoresPsiStartsOnlyOnBothEngines) {
  // With strictly positive gain rates, Y grows immediately: only a start
  // already in Psi (satisfied at x = 0 with Y(0) = 0) can win.
  const core::Mrm model = make_cycle();
  for (const auto method : {UntilMethod::kUniformization, UntilMethod::kDiscretization}) {
    CheckerOptions options;
    options.until_method = method;
    const auto values =
        until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(0.0), options);
    EXPECT_DOUBLE_EQ(values[2].probability, 1.0);
    EXPECT_NEAR(values[0].probability, 0.0, values[0].error_bound + 1e-12);
    EXPECT_NEAR(values[1].probability, 0.0, values[1].error_bound + 1e-12);
  }
}

TEST(EngineBoundaries, PointTimeIntervalIsBoundedByTheFullWindow) {
  // [t,t] demands Psi exactly at time t; [0,t] accepts any earlier witness,
  // so its probability dominates (up to the engines' error bands).
  const core::Mrm model = make_cycle();
  const std::vector<bool> everywhere(3, true);
  CheckerOptions options;
  const auto at_t = until_probabilities(model, everywhere, kPsi, logic::Interval{1.0, 1.0},
                                        logic::Interval{}, options);
  const auto up_to_t = until_probabilities(model, everywhere, kPsi, logic::up_to(1.0),
                                           logic::Interval{}, options);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_GE(at_t[s].probability, 0.0);
    EXPECT_LE(at_t[s].probability, 1.0);
    EXPECT_TRUE(at_t[s].bound.contains(at_t[s].probability));
    EXPECT_LE(at_t[s].bound.lower, up_to_t[s].bound.upper + 1e-12) << "state " << s;
  }
}

TEST(VerdictStability, ThresholdInsideTheErrorBandIsUnknownOnBothEngines) {
  // The regression this layer exists for: with the threshold inside both
  // engines' error bands the answer must be UNKNOWN twice — never SAT from
  // one engine and UNSAT from the other.
  const core::Mrm model = make_cycle();

  CheckerOptions coarse_uni;
  coarse_uni.uniformization.truncation_probability = 0.1;
  CheckerOptions coarse_disc;
  coarse_disc.until_method = UntilMethod::kDiscretization;
  coarse_disc.discretization.step = 0.25;

  const auto uni = until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0),
                                       coarse_uni);
  const auto disc = until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0),
                                        coarse_disc);
  const core::StateIndex s = 0;
  ASSERT_GT(uni[s].bound.width(), 0.0);
  ASSERT_GT(disc[s].bound.width(), 0.0);
  const double lo = std::max(uni[s].bound.lower, disc[s].bound.lower);
  const double hi = std::min(uni[s].bound.upper, disc[s].bound.upper);
  ASSERT_LT(lo, hi) << "intervals must overlap: " << uni[s].bound.to_string() << " "
                    << disc[s].bound.to_string();
  const double threshold = 0.5 * (lo + hi);

  const auto straddling = logic::make_prob_until(logic::Comparison::kGreaterEqual, threshold,
                                                 logic::up_to(1.0), logic::up_to(2.0),
                                                 logic::make_atomic("a"),
                                                 logic::make_atomic("b"));

  ModelChecker by_uni(model, coarse_uni);
  ModelChecker by_disc(model, coarse_disc);
  EXPECT_EQ(by_uni.verdicts(straddling)[s], Verdict::kUnknown);
  EXPECT_EQ(by_disc.verdicts(straddling)[s], Verdict::kUnknown);
  // And UNKNOWN states are never reported as satisfying.
  EXPECT_FALSE(by_uni.satisfaction_set(straddling)[s]);
  EXPECT_FALSE(by_disc.satisfaction_set(straddling)[s]);
  EXPECT_TRUE(unknown_set(by_uni, straddling)[s]);
}

TEST(VerdictStability, KleenePropagationThroughConnectives) {
  const core::Mrm model = make_cycle();
  CheckerOptions coarse;
  coarse.uniformization.truncation_probability = 0.1;
  const auto values =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0), coarse);
  const core::StateIndex s = 0;
  ASSERT_GT(values[s].bound.width(), 0.0);
  const double threshold = 0.5 * (values[s].bound.lower + values[s].bound.upper);

  const auto unknown_node =
      logic::make_prob_until(logic::Comparison::kGreaterEqual, threshold, logic::up_to(1.0),
                             logic::up_to(2.0), logic::make_atomic("a"),
                             logic::make_atomic("b"));
  ModelChecker checker(model, coarse);
  ASSERT_EQ(checker.verdicts(unknown_node)[s], Verdict::kUnknown);

  // T || U = T; F && U = F; !U = U; U || F = U.
  EXPECT_EQ(checker.verdicts(logic::make_or(logic::make_true(), unknown_node))[s],
            Verdict::kSat);
  EXPECT_EQ(checker.verdicts(logic::make_and(logic::make_false(), unknown_node))[s],
            Verdict::kUnsat);
  EXPECT_EQ(checker.verdicts(logic::make_not(unknown_node))[s], Verdict::kUnknown);
  EXPECT_EQ(checker.verdicts(logic::make_or(unknown_node, logic::make_false()))[s],
            Verdict::kUnknown);
  EXPECT_EQ(checker.verdicts(logic::make_and(unknown_node, logic::make_true()))[s],
            Verdict::kUnknown);
}

}  // namespace
}  // namespace csrlmrm::checker
