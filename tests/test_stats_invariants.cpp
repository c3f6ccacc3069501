// Property test: the statistics the engines report must satisfy the
// structural invariants they advertise, on a family of random MRMs — visited
// paths dominate truncated paths, Poisson windows are ordered, and solver
// iteration counters match the solver's own result. Suites are named Stats*
// so the tsan suite picks them up.
#include <gtest/gtest.h>

#include <cstdint>

#include "checker/until.hpp"
#include "core/transform.hpp"
#include "linalg/gauss_seidel.hpp"
#include "oracle/random_mrm.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm {
namespace {

class StatsInvariants : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }

  core::Mrm make_model() const {
    models::RandomMrmConfig config;
    config.num_states = 6;
    config.max_rate = 1.0;  // Lambda*t stays small enough for path enumeration
    return models::make_random_mrm(GetParam(), config);
  }
};

TEST_P(StatsInvariants, VisitedPathsDominateTruncatedPaths) {
  const core::Mrm model = make_model();
  std::vector<bool> psi = model.labels().states_with("b");
  bool any = false;
  for (auto v : psi) any = any || v;
  if (!any) psi[GetParam() % model.num_states()] = true;
  std::vector<bool> dead(model.num_states(), false);
  const core::Mrm transformed = core::make_absorbing(model, psi);

  numeric::UniformizationUntilEngine engine(transformed, psi, dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-6;
  numeric::UntilUniformizationResult totals;
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto result = engine.compute(start, 1.5, 4.0, options);
    totals.paths_stored += result.paths_stored;
    totals.paths_truncated += result.paths_truncated;
    totals.nodes_expanded += result.nodes_expanded;
  }

  const auto& registry = obs::StatsRegistry::global();
  const std::uint64_t visited = registry.counter("uniformization.paths_visited");
  const std::uint64_t truncated = registry.counter("uniformization.paths_truncated");
  // Every truncated branch was visited first; expansion and truncation are
  // disjoint outcomes of a visit.
  EXPECT_GE(visited, truncated);
  EXPECT_GE(visited, registry.counter("uniformization.nodes_expanded"));
  // The counters are exactly the per-call result fields, summed.
  EXPECT_EQ(truncated, totals.paths_truncated);
  EXPECT_EQ(registry.counter("uniformization.nodes_expanded"), totals.nodes_expanded);
  EXPECT_EQ(registry.counter("uniformization.paths_stored"), totals.paths_stored);
  // Stored paths end at expanded nodes.
  EXPECT_LE(totals.paths_stored, totals.nodes_expanded);
  EXPECT_EQ(registry.counter("uniformization.calls"),
            static_cast<std::uint64_t>(model.num_states()));
}

TEST_P(StatsInvariants, FoxGlynnWindowIsOrdered) {
  const core::Mrm model = make_model();
  std::vector<bool> phi(model.num_states(), true);
  // A singleton psi: a universal psi (some seeds label every state "a")
  // would satisfy the until trivially and never reach the transient engine.
  std::vector<bool> psi(model.num_states(), false);
  psi[GetParam() % model.num_states()] = true;

  // Time-bounded until without a reward bound runs the P1 backward series,
  // which selects its Poisson window with numeric::poisson_window.
  const auto values = checker::until_probabilities(model, phi, psi, logic::up_to(2.0),
                                                   logic::Interval{});
  ASSERT_EQ(values.size(), model.num_states());

  const auto& registry = obs::StatsRegistry::global();
  ASSERT_GE(registry.counter("poisson.window.calls"), 1u);
  const double left = registry.gauge("poisson.window.left");
  const double right = registry.gauge("poisson.window.right");
  EXPECT_GE(left, 0.0);
  EXPECT_GE(right, left);
  ASSERT_GE(registry.counter("transient.hit_calls"), 1u);
  // Each series ran one term per Poisson index in [0, right].
  EXPECT_GE(registry.counter("transient.series_terms"), right);
}

TEST_P(StatsInvariants, SolverCountersMatchSolverResult) {
  const core::Mrm model = make_model();
  std::vector<bool> phi(model.num_states(), true);
  std::vector<bool> psi = model.labels().states_with("c");
  bool any = false;
  for (auto v : psi) any = any || v;
  if (!any) psi[GetParam() % model.num_states()] = true;

  // The unbounded-until P0 path runs exactly one Gauss-Seidel solve (or
  // none when no state is in the unknown set).
  const auto probabilities = checker::unbounded_until_probabilities(model, phi, psi);
  ASSERT_EQ(probabilities.size(), model.num_states());

  const auto& registry = obs::StatsRegistry::global();
  const std::uint64_t calls = registry.counter("solver.gauss_seidel.calls");
  ASSERT_LE(calls, 1u);
  obs::StatsRegistry::global().reset();

  // Direct solve: the iteration counter must equal the reported iterations,
  // and a converged result means the loop stopped below tolerance.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  std::vector<double> b{1.0, 2.0, 3.0};
  std::vector<double> x(3, 0.0);
  linalg::IterativeOptions options;
  const auto outcome = linalg::gauss_seidel_solve(builder.build(), b, x, options);
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.final_delta, options.tolerance);
  EXPECT_EQ(registry.counter("solver.gauss_seidel.iterations"), outcome.iterations);
  EXPECT_EQ(registry.counter("solver.gauss_seidel.calls"), 1u);
  EXPECT_LE(outcome.iterations, options.max_iterations);
}

TEST_P(StatsInvariants, OmegaCountersMatchTheEnginesEvaluations) {
  // The Omega counters are recorded once per engine run, from counts kept
  // during the run: the totals must still be the evaluations the engines
  // report. The DFPG oracle evaluates one conditional probability per
  // signature class; the class DP one per non-trivial harvest group and
  // one per flow chain of its absorbed tails, each of which then steps
  // once per further harvested level.
  const core::Mrm model = make_model();
  std::vector<bool> psi = model.labels().states_with("b");
  bool any = false;
  for (auto v : psi) any = any || v;
  if (!any) psi[GetParam() % model.num_states()] = true;
  std::vector<bool> dead(model.num_states(), false);
  const core::Mrm transformed = core::make_absorbing(model, psi);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-6;
  std::vector<core::StateIndex> starts(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) starts[s] = s;
  const auto& registry = obs::StatsRegistry::global();

  numeric::UniformizationUntilEngine dfpg(transformed, psi, dead);
  std::uint64_t classes = 0;
  for (core::StateIndex start : starts) {
    classes += dfpg.compute(start, 1.5, 4.0, options).signature_classes;
  }
  EXPECT_EQ(registry.counter("omega.evaluations"), classes);
  EXPECT_EQ(registry.counter("omega.chain_steps"), 0u);
  obs::StatsRegistry::global().reset();

  const numeric::SignatureClassUntilEngine classdp(transformed, psi, dead);
  const auto batch = classdp.compute_batch(starts, 1.5, 4.0, options);
  EXPECT_EQ(registry.counter("omega.evaluations"), registry.counter("classdp.conditional_evals"));
  EXPECT_LE(registry.counter("omega.evaluations") + registry.counter("omega.chain_steps"),
            batch.front().paths_stored);
  EXPECT_LE(registry.counter("omega.chain_steps"), registry.counter("omega.dp_cells"));
}

INSTANTIATE_TEST_SUITE_P(RandomModels, StatsInvariants, ::testing::Range(1u, 31u));

}  // namespace
}  // namespace csrlmrm
