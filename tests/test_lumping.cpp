// Ordinary lumpability: partition correctness, quotient construction, and
// preservation of checker results.
#include "oracle/lumping.hpp"

#include <gtest/gtest.h>

#include "checker/sat.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "logic/parser.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::core {
namespace {

/// A model with two interchangeable worker branches: 0 dispatches to 1 or 2
/// (identical twins: same labels, rewards, rates, impulses), both return to
/// 0 and may fail into 3.
Mrm symmetric_workers() {
  RateMatrixBuilder rates(4);
  rates.add(0, 1, 1.5);
  rates.add(0, 2, 1.5);
  rates.add(1, 0, 2.0);
  rates.add(2, 0, 2.0);
  rates.add(1, 3, 0.1);
  rates.add(2, 3, 0.1);
  ImpulseRewardsBuilder impulses(4);
  impulses.add(0, 1, 0.5);
  impulses.add(0, 2, 0.5);
  Labeling labels(4);
  labels.add(0, "idle");
  labels.add(1, "work");
  labels.add(2, "work");
  labels.add(3, "down");
  return Mrm(Ctmc(rates.build(), std::move(labels)), {0.0, 3.0, 3.0, 1.0}, impulses.build());
}

TEST(Lumping, MergesInterchangeableTwins) {
  const Mrm model = symmetric_workers();
  const Lumping lumping = compute_lumping(model);
  EXPECT_EQ(lumping.num_blocks, 3u);
  EXPECT_EQ(lumping.block_of[1], lumping.block_of[2]);
  EXPECT_NE(lumping.block_of[0], lumping.block_of[1]);
  EXPECT_NE(lumping.block_of[0], lumping.block_of[3]);
}

TEST(Lumping, QuotientAggregatesRates) {
  const Mrm model = symmetric_workers();
  const Lumping lumping = compute_lumping(model);
  const Mrm quotient = build_quotient(model, lumping);
  ASSERT_EQ(quotient.num_states(), 3u);
  const std::size_t idle = lumping.block_of[0];
  const std::size_t work = lumping.block_of[1];
  EXPECT_DOUBLE_EQ(quotient.rates().rate(idle, work), 3.0);  // 1.5 + 1.5
  EXPECT_DOUBLE_EQ(quotient.impulse_reward(idle, work), 0.5);
  EXPECT_DOUBLE_EQ(quotient.state_reward(work), 3.0);
  EXPECT_TRUE(quotient.labels().has(work, "work"));
}

TEST(Lumping, DifferentRewardsPreventMerging) {
  Mrm model = symmetric_workers();
  // Rebuild with asymmetric rewards on the twins.
  RateMatrixBuilder rates(4);
  for (StateIndex s = 0; s < 4; ++s) {
    for (const auto& e : model.rates().transitions(s)) rates.add(s, e.col, e.value);
  }
  Labeling labels(4);
  for (StateIndex s = 0; s < 4; ++s) {
    for (const auto& ap : model.labels().labels_of(s)) labels.add(s, ap);
  }
  ImpulseRewardsBuilder impulses(4);
  impulses.add(0, 1, 0.5);
  impulses.add(0, 2, 0.5);
  const Mrm asymmetric(Ctmc(rates.build(), std::move(labels)), {0.0, 3.0, 4.0, 1.0},
                       impulses.build());
  EXPECT_EQ(compute_lumping(asymmetric).num_blocks, 4u);
}

TEST(Lumping, DifferentImpulsesPreventMerging) {
  RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(0, 2, 1.0);
  ImpulseRewardsBuilder impulses(3);
  impulses.add(0, 1, 1.0);  // twin 2 gets no impulse
  const Mrm model(Ctmc(rates.build(), Labeling(3)), std::vector<double>(3, 0.0),
                  impulses.build());
  // 1 and 2 are both absorbing, unlabeled, zero reward — by outgoing
  // signatures alone they would merge, but state 0 reaches them with
  // different impulse values, so the incoming-impulse refinement must keep
  // them apart (a merged block would change the reward distribution).
  const Lumping lumping = compute_lumping(model);
  EXPECT_NE(lumping.block_of[1], lumping.block_of[2]);
  EXPECT_EQ(lumping.num_blocks, 3u);
  EXPECT_NO_THROW(build_quotient(model, lumping));
}

TEST(Lumping, IntraBlockImpulseForcesSplit) {
  // Twins 0 and 1 exchange impulse-carrying transitions; merging them would
  // require an impulse self-loop, so they must stay separate.
  RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  ImpulseRewardsBuilder impulses(2);
  impulses.add(0, 1, 0.25);
  impulses.add(1, 0, 0.25);
  const Mrm model(Ctmc(rates.build(), Labeling(2)), std::vector<double>(2, 0.0),
                  impulses.build());
  const Lumping lumping = compute_lumping(model);
  EXPECT_EQ(lumping.num_blocks, 2u);
}

TEST(Lumping, WavelanIsAlreadyMinimal) {
  const Mrm model = models::make_wavelan();
  EXPECT_EQ(compute_lumping(model).num_blocks, 5u);
}

TEST(Lumping, QuotientPreservesCheckerResults) {
  const Mrm model = symmetric_workers();
  const Lumping lumping = compute_lumping(model);
  const Mrm quotient = build_quotient(model, lumping);

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-10;
  checker::ModelChecker original(model, options);
  checker::ModelChecker reduced(quotient, options);

  for (const char* text : {
           "S(>0.1) work",
           "P(>0.05)[TT U[0,2][0,10] down]",
           "P(>0.2)[idle || work U[0,1.5][0,8] down]",
           "P(>0.3)[X[0,1][0,2] work]",
       }) {
    const auto formula = logic::parse_formula(text);
    const auto& sat_original = original.satisfaction_set(formula);
    const auto& sat_reduced = reduced.satisfaction_set(formula);
    for (StateIndex s = 0; s < model.num_states(); ++s) {
      EXPECT_EQ(sat_original[s], sat_reduced[lumping.block_of[s]])
          << text << " state " << s;
    }
  }

  // And numerically, not just the verdicts. Exact values coincide; the
  // truncated computations may differ by their error bounds (the original
  // model splits each symmetric path in two, so its halves drop below w
  // earlier than the quotient's merged path).
  const auto formula = logic::parse_formula("P(>0.05)[TT U[0,2][0,10] down]");
  const auto original_values = original.path_probabilities(formula);
  const auto reduced_values = reduced.path_probabilities(formula);
  for (StateIndex s = 0; s < model.num_states(); ++s) {
    const auto& a = original_values[s];
    const auto& b = reduced_values[lumping.block_of[s]];
    EXPECT_NEAR(a.probability, b.probability, a.error_bound + b.error_bound + 1e-12)
        << "state " << s;
  }
}

TEST(Lumping, LumpIsIdempotent) {
  const Mrm quotient = lump(symmetric_workers());
  EXPECT_EQ(compute_lumping(quotient).num_blocks, quotient.num_states());
}

TEST(Lumping, RejectsMismatchedLumping) {
  const Mrm model = symmetric_workers();
  Lumping bogus;
  bogus.block_of = {0, 0};  // wrong size
  bogus.num_blocks = 1;
  bogus.representative = {0};
  EXPECT_THROW(build_quotient(model, bogus), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::core
