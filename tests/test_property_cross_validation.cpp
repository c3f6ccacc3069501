// Property-based cross-validation: the two independent P2 engines
// (uniformization/DFPG+Omega and discretization) and the P1 transient path
// must agree on randomly generated MRMs. This is exactly the validation
// argument of thesis section 5.3.3 ("the results obtained using
// uniformization and discretization methods converge to the same value"),
// run over a family of seeds instead of one hand-picked model.
#include <gtest/gtest.h>

#include "checker/until.hpp"
#include "checker/verdict.hpp"
#include "core/transform.hpp"
#include "models/random_mrm.hpp"
#include "numeric/discretization.hpp"
#include "obs/stats.hpp"
#include "oracle/path_explorer.hpp"
#include "oracle/simulator.hpp"

namespace csrlmrm {
namespace {

struct Workload {
  std::uint32_t seed;
  double t;
  double r;
};

void PrintTo(const Workload& w, std::ostream* os) {
  *os << "seed=" << w.seed << " t=" << w.t << " r=" << w.r;
}

class EnginesAgree : public ::testing::TestWithParam<Workload> {};

TEST_P(EnginesAgree, UniformizationMatchesDiscretization) {
  const auto [seed, t, r] = GetParam();
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;  // keeps Lambda*t small enough for path enumeration
  const core::Mrm model = models::make_random_mrm(seed, config);

  // Until query: a-states until b-states (plus fallbacks when a seed labels
  // nothing with a/b: use "true" masks so the query is never vacuous).
  std::vector<bool> phi = model.labels().states_with("a");
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (auto v : psi) any_psi = any_psi || v;
  if (!any_psi) psi[seed % config.num_states] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);

  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    absorb[s] = !phi[s] || psi[s];
    dead[s] = !phi[s] && !psi[s];
  }
  const core::Mrm transformed = core::make_absorbing(model, absorb);

  numeric::UniformizationUntilEngine engine(transformed, psi, dead);
  numeric::PathExplorerOptions uopts;
  uopts.truncation_probability = 1e-13;

  numeric::DiscretizationOptions dopts;
  dopts.step = 1.0 / 128.0;  // max exit rate <= ~5 -> d*E << 1

  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto uni = engine.compute(start, t, r, uopts);
    const auto disc =
        numeric::until_probability_discretization(transformed, psi, start, t, r, dopts);
    // Discretization error is O(d); uniformization error is bounded by the
    // reported truncation bound.
    EXPECT_NEAR(uni.probability, disc.probability, 0.03 + uni.error_bound)
        << "start=" << start;
    EXPECT_GE(uni.probability, -1e-12);
    EXPECT_LE(uni.probability, 1.0 + 1e-12);
    // Both engines' rigorous intervals contain the truth, so they must
    // always overlap — a disjoint pair would prove one error bound wrong.
    const auto uni_bound =
        checker::ProbabilityBound::from_point_error(uni.probability, 0.0, uni.error_bound);
    const auto disc_bound = checker::ProbabilityBound::from_point_error(
        disc.probability, disc.error_bound, disc.error_bound);
    EXPECT_TRUE(uni_bound.overlaps(disc_bound))
        << "start=" << start << ": " << uni_bound.to_string() << " vs "
        << disc_bound.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, EnginesAgree,
                         ::testing::Values(Workload{1, 2.0, 6.0}, Workload{2, 1.0, 3.0},
                                           Workload{3, 2.0, 10.0}, Workload{4, 3.0, 8.0},
                                           Workload{5, 1.5, 4.0}, Workload{6, 2.5, 12.0},
                                           Workload{7, 1.0, 2.0}, Workload{8, 2.0, 20.0},
                                           Workload{9, 1.0, 5.0}, Workload{10, 2.0, 7.0}));

class HugeRewardReducesToP1 : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HugeRewardReducesToP1, RewardEngineMatchesTransientAnalysis) {
  // With r far above any reachable accumulation, the P2 value must equal the
  // time-bounded-until value computed by plain transient analysis.
  const std::uint32_t seed = GetParam();
  models::RandomMrmConfig config;
  config.num_states = 5;
  config.max_rate = 1.2;
  const core::Mrm model = models::make_random_mrm(seed, config);

  std::vector<bool> phi(model.num_states(), true);
  std::vector<bool> psi = model.labels().states_with("c");
  bool any = false;
  for (auto v : psi) any = any || v;
  if (!any) psi[0] = true;

  const double t = 1.5;
  checker::CheckerOptions p2;
  p2.uniformization.truncation_probability = 1e-13;
  const auto bounded = checker::until_probabilities(model, phi, psi, logic::up_to(t),
                                                    logic::up_to(1e8), p2);
  const auto unbounded_reward =
      checker::until_probabilities(model, phi, psi, logic::up_to(t), logic::Interval{});
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    EXPECT_NEAR(bounded[s].probability, unbounded_reward[s].probability,
                1e-6 + bounded[s].error_bound)
        << "seed=" << seed << " state=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HugeRewardReducesToP1, ::testing::Range(1u, 13u));

class ImpulseHeavyEnginesAgree : public ::testing::TestWithParam<Workload> {
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

TEST_P(ImpulseHeavyEnginesAgree, AllThreeEnginesAgreeAndReportStats) {
  // Models where the impulse rewards iota dominate the rate rewards rho:
  // state rewards at most 1, nine of ten transitions carry an impulse. This
  // is the regime the thesis is actually about — both engines must keep
  // agreeing (and with the simulator) when almost all accumulation happens
  // at jumps.
  const auto [seed, t, r] = GetParam();
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;
  config.max_state_reward = 1;    // rho in {0, 1}
  config.impulse_probability = 0.9;
  config.max_impulse = 2.0;       // iota up to 2, multiples of 1/4
  const core::Mrm model = models::make_random_mrm(seed, config);

  std::vector<bool> phi(model.num_states(), true);
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (auto v : psi) any_psi = any_psi || v;
  if (!any_psi) psi[seed % config.num_states] = true;

  std::vector<bool> dead(model.num_states(), false);  // phi holds everywhere
  const core::Mrm transformed = core::make_absorbing(model, psi);

  numeric::UniformizationUntilEngine engine(transformed, psi, dead);
  numeric::PathExplorerOptions uopts;
  uopts.truncation_probability = 1e-13;

  numeric::DiscretizationOptions dopts;
  dopts.step = 1.0 / 64.0;  // impulses are multiples of 1/4 -> integral levels

  sim::SimulationOptions sopts;
  sopts.samples = 20'000;
  sopts.seed = 1234 + seed;

  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto uni = engine.compute(start, t, r, uopts);
    const auto disc =
        numeric::until_probability_discretization(transformed, psi, start, t, r, dopts);
    EXPECT_NEAR(uni.probability, disc.probability, 0.03 + uni.error_bound)
        << "start=" << start;
    EXPECT_TRUE(
        checker::ProbabilityBound::from_point_error(uni.probability, 0.0, uni.error_bound)
            .overlaps(checker::ProbabilityBound::from_point_error(
                disc.probability, disc.error_bound, disc.error_bound)))
        << "start=" << start;
    const auto sim_estimate = sim::estimate_until(model, start, phi, psi, logic::up_to(t),
                                                  logic::up_to(r), sopts);
    EXPECT_NEAR(uni.probability, sim_estimate.mean,
                sim_estimate.half_width_95 + 0.02 + uni.error_bound)
        << "start=" << start;
  }

  // All three engines ran instrumented: their stats blocks must be present.
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("uniformization.calls"),
            static_cast<std::uint64_t>(model.num_states()));
  EXPECT_EQ(registry.counter("discretization.calls"),
            static_cast<std::uint64_t>(model.num_states()));
  EXPECT_GE(registry.counter("uniformization.paths_visited"),
            registry.counter("uniformization.paths_truncated"));
  EXPECT_GE(registry.counter("discretization.time_steps"), 1u);
  EXPECT_EQ(registry.counter("sim.samples"),
            static_cast<std::uint64_t>(sopts.samples) * model.num_states());
  const obs::TraceNode trace = registry.trace();
  EXPECT_NE(trace.find("uniformization.until"), nullptr);
  EXPECT_NE(trace.find("discretization.until"), nullptr);
  EXPECT_NE(trace.find("sim.estimate_until"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(ImpulseDominatedModels, ImpulseHeavyEnginesAgree,
                         ::testing::Values(Workload{21, 1.0, 2.0}, Workload{22, 1.5, 3.0},
                                           Workload{23, 2.0, 5.0}, Workload{24, 1.0, 4.0},
                                           Workload{25, 1.5, 6.0}));

TEST(CrossValidation, AggregationAblationIsExactOnRandomModels) {
  // Per-path Omega evaluation and per-signature aggregation must agree to
  // machine precision (they sum the same terms in different orders).
  for (std::uint32_t seed : {3u, 11u, 27u}) {
    models::RandomMrmConfig config;
    config.num_states = 5;
    config.max_rate = 1.0;
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> psi(model.num_states(), false);
    psi[1] = true;
    std::vector<bool> dead(model.num_states(), false);
    std::vector<bool> absorb = psi;
    const core::Mrm transformed = core::make_absorbing(model, absorb);
    numeric::UniformizationUntilEngine engine(transformed, psi, dead);
    numeric::PathGeneratorOptions aggregated;
    aggregated.truncation_probability = 1e-11;
    numeric::PathGeneratorOptions per_path = aggregated;
    per_path.aggregate_signatures = false;
    const auto a = engine.compute(0, 1.0, 5.0, aggregated);
    const auto b = engine.compute(0, 1.0, 5.0, per_path);
    EXPECT_NEAR(a.probability, b.probability, 1e-12) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(a.error_bound, b.error_bound);
    EXPECT_LE(a.signature_classes, b.signature_classes);
  }
}

}  // namespace
}  // namespace csrlmrm
