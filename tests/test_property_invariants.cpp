// Property suites over seeded random MRMs: probability-theoretic invariants
// every engine must satisfy regardless of the model.
#include <gtest/gtest.h>

#include "checker/next.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/transform.hpp"
#include "graph/scc.hpp"
#include "linalg/vector_ops.hpp"
#include "oracle/ctmc_measures.hpp"
#include "oracle/linalg_reference.hpp"
#include "oracle/random_mrm.hpp"
#include "oracle/transient_forward.hpp"

namespace csrlmrm {
namespace {

models::RandomMrmConfig calm_config() {
  // Keep Lambda*t small so the path-enumeration invariant checks stay fast;
  // the cross-validation suite covers denser models.
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;
  return config;
}

class RandomModelInvariants : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  core::Mrm model_ = models::make_random_mrm(GetParam(), calm_config());
};

TEST_P(RandomModelInvariants, TransientDistributionSumsToOne) {
  for (double t : {0.1, 1.0, 5.0}) {
    const auto p = numeric::transient_distribution_from(model_.rates(), 0, t);
    EXPECT_TRUE(linalg::is_distribution(p, 1e-8)) << "t=" << t;
  }
}

TEST_P(RandomModelInvariants, SteadyStateDistributionSumsToOne) {
  for (core::StateIndex start = 0; start < model_.num_states(); ++start) {
    const auto pi = checker::steady_state_distribution(model_, start);
    EXPECT_TRUE(linalg::is_distribution(pi, 1e-8)) << "start=" << start;
  }
}

TEST_P(RandomModelInvariants, SteadyStateMassConcentratesOnBsccs) {
  const auto bsccs = graph::bottom_sccs(model_.rates().matrix());
  std::vector<bool> in_bottom(model_.num_states(), false);
  for (const auto& component : bsccs) {
    for (const auto s : component) in_bottom[s] = true;
  }
  const auto pi = checker::steady_state_distribution(model_, 0);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    if (!in_bottom[s]) {
      EXPECT_NEAR(pi[s], 0.0, 1e-10) << "transient state " << s;
    }
  }
}

TEST_P(RandomModelInvariants, SccsPartitionTheStateSpace) {
  const auto scc = graph::strongly_connected_components(model_.rates().matrix());
  std::vector<std::size_t> size(scc.component_count, 0);
  for (const auto c : scc.component_of) {
    ASSERT_LT(c, scc.component_count);
    ++size[c];
  }
  std::size_t total = 0;
  for (const auto s : size) {
    EXPECT_GT(s, 0u);
    total += s;
  }
  EXPECT_EQ(total, model_.num_states());
}

TEST_P(RandomModelInvariants, UnboundedUntilIsAProbabilityAndRespectsMasks) {
  const auto phi = model_.labels().states_with("a");
  auto psi = model_.labels().states_with("b");
  psi[0] = true;  // never vacuous
  const auto p = checker::unbounded_until_probabilities(model_, phi, psi);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_GE(p[s], 0.0);
    EXPECT_LE(p[s], 1.0);
    if (psi[s]) {
      EXPECT_DOUBLE_EQ(p[s], 1.0);
    }
    if (!psi[s] && !phi[s]) {
      EXPECT_DOUBLE_EQ(p[s], 0.0);
    }
  }
}

TEST_P(RandomModelInvariants, TimeBoundedUntilIsMonotoneInT) {
  std::vector<bool> phi(model_.num_states(), true);
  auto psi = model_.labels().states_with("c");
  psi[model_.num_states() - 1] = true;
  double previous = -1.0;
  for (double t : {0.2, 0.5, 1.0, 2.0}) {
    const auto values =
        checker::until_probabilities(model_, phi, psi, logic::up_to(t), logic::Interval{});
    EXPECT_GE(values[0].probability, previous - 1e-9) << "t=" << t;
    previous = values[0].probability;
  }
}

TEST_P(RandomModelInvariants, RewardBoundedUntilIsMonotoneInR) {
  std::vector<bool> phi(model_.num_states(), true);
  std::vector<bool> psi(model_.num_states(), false);
  psi[1] = true;
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  double previous = -1.0;
  for (double r : {0.5, 2.0, 5.0, 20.0}) {
    const auto values = checker::until_probabilities(model_, phi, psi, logic::up_to(1.0),
                                                     logic::up_to(r), options);
    EXPECT_GE(values[0].probability, previous - 1e-9) << "r=" << r;
    EXPECT_GE(values[0].probability, 0.0);
    EXPECT_LE(values[0].probability, 1.0 + 1e-9);
    previous = values[0].probability;
  }
}

TEST_P(RandomModelInvariants, RewardBoundedUntilIsBoundedByTimeBoundedUntil) {
  // Adding a reward constraint can only remove paths.
  std::vector<bool> phi(model_.num_states(), true);
  std::vector<bool> psi(model_.num_states(), false);
  psi[2 % model_.num_states()] = true;
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  const double t = 1.0;
  const auto bounded = checker::until_probabilities(model_, phi, psi, logic::up_to(t),
                                                    logic::up_to(3.0), options);
  const auto free = checker::until_probabilities(model_, phi, psi, logic::up_to(t),
                                                 logic::Interval{});
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_LE(bounded[s].probability, free[s].probability + 1e-9) << "state " << s;
  }
}

TEST_P(RandomModelInvariants, NextProbabilitiesAreSubProbabilities) {
  const auto phi = model_.labels().states_with("a");
  const auto unrestricted = checker::next_probabilities(model_, std::vector<bool>(
                                                            model_.num_states(), true),
                                                        logic::Interval{}, logic::Interval{});
  const auto restricted =
      checker::next_probabilities(model_, phi, logic::Interval{}, logic::Interval{});
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_GE(restricted[s], 0.0);
    EXPECT_LE(restricted[s], unrestricted[s] + 1e-12);
    EXPECT_LE(unrestricted[s], 1.0 + 1e-12);
    if (model_.rates().is_absorbing(s)) {
      EXPECT_DOUBLE_EQ(unrestricted[s], 0.0);
    }
  }
}

TEST_P(RandomModelInvariants, MakeAbsorbingIsIdempotent) {
  const auto mask = model_.labels().states_with("a");
  const core::Mrm once = core::make_absorbing(model_, mask);
  const core::Mrm twice = core::make_absorbing(once, mask);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(once.state_reward(s), twice.state_reward(s));
    EXPECT_DOUBLE_EQ(once.rates().exit_rate(s), twice.rates().exit_rate(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelInvariants, ::testing::Range(1u, 21u));

}  // namespace
}  // namespace csrlmrm
