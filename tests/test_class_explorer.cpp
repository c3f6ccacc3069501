// Property-based validation of the signature-class DP until engine
// (class_explorer.hpp), the checker's uniformization engine, against the DFS
// path generator of the thesis (path_explorer.hpp, Algorithm 4.7), kept as
// its reference oracle. Both engines compute a lower
// approximation p with p <= p_exact <= p + error_bound, so on every model
// they must agree within the sum of their reported bounds — checked here
// over 50 seeded random impulse-reward MRMs rather than hand-picked
// examples. The DP additionally promises bitwise determinism across worker
// thread counts and, while its hybrid escalation does not fire,
// batch-vs-single-start equivalence; both are asserted exactly (==), not
// within a tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "core/transform.hpp"
#include "oracle/cellphone.hpp"
#include "oracle/random_mrm.hpp"
#include "models/tmr.hpp"
#include "numeric/class_explorer.hpp"
#include "obs/stats.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm {
namespace {

struct UntilSetup {
  core::Mrm transformed;
  std::vector<bool> psi;
  std::vector<bool> dead;
};

/// Phi from label "a" padded with the even states, psi from label "b" with a
/// seeded fallback — the same recipe as test_property_cross_validation.cpp,
/// so the two property suites exercise comparable formula shapes.
struct UntilMasks {
  std::vector<bool> phi;
  std::vector<bool> psi;
};

UntilMasks make_masks(const core::Mrm& model, std::uint32_t seed) {
  std::vector<bool> phi = model.labels().states_with("a");
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (const auto value : psi) any_psi = any_psi || value;
  if (!any_psi) psi[seed % model.num_states()] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);
  return {std::move(phi), std::move(psi)};
}

/// The checker's until preprocessing applied to make_masks on one random
/// model.
UntilSetup make_setup(const core::Mrm& model, std::uint32_t seed) {
  auto [phi, psi] = make_masks(model, seed);
  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    absorb[s] = !phi[s] || psi[s];
    dead[s] = !phi[s] && !psi[s];
  }
  return {core::make_absorbing(model, absorb), std::move(psi), std::move(dead)};
}

core::Mrm make_model(std::uint32_t seed) {
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;  // keeps Lambda*t small enough for path enumeration
  return models::make_random_mrm(seed, config);
}

/// Per-seed query parameters, derived deterministically so the suite needs no
/// runtime randomness.
double time_bound_of(std::uint32_t seed) { return 0.5 + 0.25 * (seed % 7); }
double reward_bound_of(std::uint32_t seed) { return 1.0 + (seed % 9); }

std::vector<core::StateIndex> all_states(const core::Mrm& model) {
  std::vector<core::StateIndex> starts(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) starts[s] = s;
  return starts;
}

class ClassExplorerCrossEngine : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerCrossEngine, AgreesWithDfsWithinCombinedErrorBounds) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  numeric::UniformizationUntilEngine dfs(setup.transformed, setup.psi, setup.dead);
  numeric::SignatureClassUntilEngine classdp(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;

  const auto batch = classdp.compute_batch(all_states(model), t, r, options);
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto reference = dfs.compute(start, t, r, options);
    const auto& candidate = batch[start];
    EXPECT_GE(candidate.probability, -1e-12) << "start=" << start;
    EXPECT_LE(candidate.probability, 1.0 + 1e-12) << "start=" << start;
    EXPECT_GE(candidate.error_bound, 0.0) << "start=" << start;
    // Both engines bracket the same exact value from below, so the point
    // estimates can differ by at most the combined truncation error.
    EXPECT_NEAR(candidate.probability, reference.probability,
                candidate.error_bound + reference.error_bound + 1e-12)
        << "start=" << start << " t=" << t << " r=" << r;
  }
}

// 50 random impulse-reward MRMs (the generator attaches impulses to ~40% of
// transitions, so nearly every seed exercises non-empty j signatures).
INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerCrossEngine,
                         ::testing::Range(1u, 51u));

class ClassExplorerBatch : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerBatch, BatchIsBitwiseEqualToSingleStartRuns) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;

  // Batch == single holds only while the hybrid escalation cannot fire:
  // these 6-state models never reach the trigger's 4096 raw successor rows
  // on a level, which the raw-row total bounds.
  obs::set_stats_enabled(true);
  obs::StatsRegistry::global().reset();
  const auto batch = engine.compute_batch(all_states(model), t, r, options);
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_LT(registry.counter("classdp.raw_rows"), 4096u);
  EXPECT_EQ(registry.counter("classdp.hybrid_handoffs"), 0u);
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto single = engine.compute(start, t, r, options);
    EXPECT_EQ(batch[start].probability, single.probability) << "start=" << start;  // bitwise
    EXPECT_EQ(batch[start].error_bound, single.error_bound) << "start=" << start;
  }
}

TEST_P(ClassExplorerBatch, DuplicateStartsGetIdenticalSlots) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const std::vector<core::StateIndex> starts{0, 1, 0};
  const auto batch = engine.compute_batch(starts, time_bound_of(seed), reward_bound_of(seed));
  EXPECT_EQ(batch[0].probability, batch[2].probability);
  EXPECT_EQ(batch[0].error_bound, batch[2].error_bound);
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerBatch,
                         ::testing::Values(1u, 8u, 15u, 22u, 29u, 36u, 43u, 50u));

class ClassExplorerDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;
  options.threads = 1;
  const auto reference = engine.compute_batch(all_states(model), t, r, options);
  for (const unsigned threads : {2u, 8u}) {
    options.threads = threads;
    const auto other = engine.compute_batch(all_states(model), t, r, options);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(other[i].probability, reference[i].probability)
          << "threads=" << threads << " start=" << i;  // bitwise, sorted merge
      EXPECT_EQ(other[i].error_bound, reference[i].error_bound)
          << "threads=" << threads << " start=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerDeterminism,
                         ::testing::Values(2u, 9u, 16u, 23u, 30u, 37u, 44u));

TEST(ClassExplorerEdgeCases, ZeroTimeBoundIsThePsiIndicator) {
  const core::Mrm model = make_model(3);
  const UntilSetup setup = make_setup(model, 3);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const auto batch = engine.compute_batch(all_states(model), 0.0, 5.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const double expected = (!setup.dead[s] && setup.psi[s]) ? 1.0 : 0.0;
    EXPECT_EQ(batch[s].probability, expected) << "start=" << s;
    EXPECT_EQ(batch[s].error_bound, 0.0) << "start=" << s;
  }
}

TEST(ClassExplorerEdgeCases, DeadStartsAreExactlyZero) {
  const core::Mrm model = make_model(4);
  const UntilSetup setup = make_setup(model, 4);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const auto batch = engine.compute_batch(all_states(model), 1.5, 4.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!setup.dead[s]) continue;
    EXPECT_EQ(batch[s].probability, 0.0) << "start=" << s;
    EXPECT_EQ(batch[s].error_bound, 0.0) << "start=" << s;
  }
}

TEST(ClassExplorerEdgeCases, ExhaustedClassBudgetThrowsNodeBudgetError) {
  const core::Mrm model = make_model(5);
  const UntilSetup setup = make_setup(model, 5);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;
  options.max_nodes = 3;
  EXPECT_THROW(engine.compute_batch(all_states(model), 2.0, 6.0, options),
               numeric::NodeBudgetError);
}

TEST(ClassExplorerEdgeCases, RejectsInvalidArguments) {
  const core::Mrm model = make_model(6);
  const UntilSetup setup = make_setup(model, 6);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  EXPECT_THROW(engine.compute(model.num_states(), 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(engine.compute(0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(engine.compute(0, 1.0, -1.0), std::invalid_argument);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 0.0;
  EXPECT_THROW(engine.compute(0, 1.0, 1.0, options), std::invalid_argument);
}

TEST(ClassExplorerHybrid, HandOffRecordsFoldAndHandOffCountersAtEveryThreadCount) {
  // The 11-module NMR calibration model (Table 5.5) defeats class merging
  // at t = 100: the fold ratio stays high on large levels, so the engine
  // hands the frontier to its depth-first continuation.
  // The level fold ratio and the hand-off land in the stats registry, and
  // every one of those counters is thread-invariant.
  const core::Mrm model = models::make_tmr(models::chapter5_nmr_config(false));
  const std::vector<bool> psi = model.labels().states_with("allUp");
  const std::vector<bool> dead(model.num_states(), false);
  const numeric::SignatureClassUntilEngine engine(core::make_absorbing(model, psi), psi, dead);
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!psi[s]) starts.push_back(s);
  }
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-8;

  obs::set_stats_enabled(true);
  std::map<std::string, std::uint64_t> reference;
  double reference_level = 0.0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::StatsRegistry::global().reset();
    options.threads = threads;
    engine.compute_batch(starts, 100.0, 2000.0, options);
    const auto& registry = obs::StatsRegistry::global();
    std::map<std::string, std::uint64_t> counters;
    for (const char* name : {"classdp.raw_rows", "classdp.folded_rows", "classdp.hybrid_handoffs",
                             "classdp.handoff_roots", "classdp.handoff_nodes",
                             "classdp.nodes_expanded"}) {
      counters[name] = registry.counter(name);
    }
    const double level = registry.gauge("classdp.handoff_level");
    EXPECT_EQ(counters["classdp.hybrid_handoffs"], 1u) << "threads=" << threads;
    EXPECT_GT(counters["classdp.folded_rows"], 0u);
    EXPECT_LE(counters["classdp.folded_rows"], counters["classdp.raw_rows"]);
    EXPECT_GT(counters["classdp.handoff_roots"], 0u);
    EXPECT_GT(counters["classdp.handoff_nodes"], 0u);
    EXPECT_LT(counters["classdp.handoff_nodes"], counters["classdp.nodes_expanded"]);
    EXPECT_GT(level, 0.0);
    if (threads == 1) {
      reference = counters;
      reference_level = level;
    } else {
      EXPECT_EQ(counters, reference) << "threads=" << threads;
      EXPECT_EQ(level, reference_level) << "threads=" << threads;
    }
  }
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);
}

/// A 14-state random model in which every transition carries an impulse
/// from `impulses` (picked by its endpoints' sum modulo their count), so
/// impulse histories with different counts reach equal totals within a few
/// levels.
core::Mrm make_equal_totals_model(const std::vector<double>& impulses) {
  models::RandomMrmConfig config;
  config.num_states = 14;
  config.edge_probability = 0.35;
  config.max_rate = 1.0;
  const core::Mrm base = models::make_random_mrm(5, config);
  core::ImpulseRewardsBuilder builder(base.num_states());
  for (core::StateIndex s = 0; s < base.num_states(); ++s) {
    for (const linalg::Entry& edge : base.rates().transitions(s)) {
      if (edge.col != s) builder.add(s, edge.col, impulses[(s + edge.col) % impulses.size()]);
    }
  }
  return core::Mrm(base.ctmc(), base.state_rewards(), builder.build());
}

class ClassExplorerEqualTotals : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(ClassExplorerEqualTotals, HandOffAgreesWithDfpgAtEveryThreadCount) {
  // A class signature carries the snapped impulse total, so histories such
  // as 1 + 1 and 2, or the non-dyadic 0.1 + 0.2 and 0.3, share one class
  // from the level at which they meet. The frontier of this batch grows
  // past the hand-off trigger, so merged classes also seed the depth-first
  // continuation. The results are identical at every thread count and agree
  // with the DFPG oracle within the two engines' summed error bounds.
  const core::Mrm model = make_equal_totals_model(GetParam());
  const std::vector<bool> psi = model.labels().states_with("b");
  const std::vector<bool> dead(model.num_states(), false);
  const core::Mrm transformed = core::make_absorbing(model, psi);
  const numeric::SignatureClassUntilEngine classdp(transformed, psi, dead);
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!psi[s]) starts.push_back(s);
  }
  ASSERT_FALSE(starts.empty());
  const double t = 1.0;
  const double r = 5.0;
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-8;

  obs::set_stats_enabled(true);
  std::vector<numeric::UntilUniformizationResult> reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::StatsRegistry::global().reset();
    options.threads = threads;
    const auto batch = classdp.compute_batch(starts, t, r, options);
    EXPECT_EQ(obs::StatsRegistry::global().counter("classdp.hybrid_handoffs"), 1u)
        << "threads=" << threads;
    if (threads == 1) {
      reference = batch;
      continue;
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(batch[i].probability, reference[i].probability)
          << "threads=" << threads << " start=" << starts[i];  // bitwise
      EXPECT_EQ(batch[i].error_bound, reference[i].error_bound)
          << "threads=" << threads << " start=" << starts[i];
    }
  }
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);

  const numeric::UniformizationUntilEngine dfpg(transformed, psi, dead);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto oracle = dfpg.compute(starts[i], t, r, options);
    EXPECT_NEAR(reference[i].probability, oracle.probability,
                reference[i].error_bound + oracle.error_bound + 1e-12)
        << "start=" << starts[i];
  }
}

INSTANTIATE_TEST_SUITE_P(ImpulseValues, ClassExplorerEqualTotals,
                         ::testing::Values(std::vector<double>{1.0, 2.0},
                                           std::vector<double>{0.1, 0.2, 0.3}));

// ---------------------------------------------------------- absorbed tails

/// A random model in which states 0 .. psi_states - 1 form Psi (made
/// absorbing with zero reward by the transform, so their rows run as
/// tails) and state psi_states is a Phi-state with reward 0, the absorbed
/// states' reward class: a path that waits there one more epoch before it
/// enters Psi meets, under one key, a path that entered Psi an epoch
/// earlier and has since taken its self-loop.
struct TailCase {
  std::uint32_t seed;
  std::size_t num_states;
  std::size_t psi_states;
  double t;
  double r;
  double w;
  bool handoff;  // the batch's frontier fires the depth-first hand-off
};

// Names the instances: gtest would otherwise print the struct's raw bytes,
// padding included, which differ from build to build. The seed tells the
// cases below apart; the name stays short and free of spaces.
void PrintTo(const TailCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << (c.handoff ? ",handoff" : "");
}

core::Mrm make_tail_model(const TailCase& c) {
  models::RandomMrmConfig config;
  config.num_states = c.num_states;
  config.max_rate = 1.0;
  config.edge_probability = c.handoff ? 0.5 : 0.35;
  const core::Mrm base = models::make_random_mrm(c.seed, config);
  std::vector<double> rewards = base.state_rewards();
  rewards[c.psi_states] = 0.0;
  return core::Mrm(base.ctmc(), std::move(rewards), base.impulse_rewards());
}

class ClassExplorerTails : public ::testing::TestWithParam<TailCase> {};

TEST_P(ClassExplorerTails, AgreeWithDfpgAndAreBitwiseEqualAcrossThreadCounts) {
  // Several absorbing Psi-states, arrivals colliding with tails of their
  // key, impulses past r (a threshold r' < 0, so Omega is 0 for good) and,
  // in the larger cases, a frontier that hands off to the depth-first
  // continuation, whose paths finish as tails too. Every start — one of
  // them in Psi, a tail from level 0 — agrees with the DFPG oracle within
  // the two engines' summed error bounds, and the batch is bitwise the
  // same at 1, 2 and 8 threads.
  const TailCase& c = GetParam();
  const core::Mrm model = make_tail_model(c);
  std::vector<bool> psi(model.num_states(), false);
  for (std::size_t s = 0; s < c.psi_states; ++s) psi[s] = true;
  const std::vector<bool> dead(model.num_states(), false);
  const core::Mrm transformed = core::make_absorbing(model, psi);
  const numeric::SignatureClassUntilEngine classdp(transformed, psi, dead);
  std::vector<core::StateIndex> starts{0};
  for (core::StateIndex s = c.psi_states; s < model.num_states(); ++s) starts.push_back(s);
  numeric::PathExplorerOptions options;
  options.truncation_probability = c.w;

  obs::set_stats_enabled(true);
  std::vector<numeric::UntilUniformizationResult> reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::StatsRegistry::global().reset();
    options.threads = threads;
    const auto batch = classdp.compute_batch(starts, c.t, c.r, options);
    const auto& registry = obs::StatsRegistry::global();
    EXPECT_EQ(registry.counter("classdp.hybrid_handoffs"), c.handoff ? 1u : 0u)
        << "threads=" << threads;
    EXPECT_GT(registry.counter("classdp.tail_merges"), 0u) << "threads=" << threads;
    EXPECT_EQ(registry.counter("omega.evaluations"),
              registry.counter("classdp.conditional_evals"));
    if (threads == 1) {
      reference = batch;
      continue;
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(batch[i].probability, reference[i].probability)
          << "threads=" << threads << " start=" << starts[i];  // bitwise
      EXPECT_EQ(batch[i].error_bound, reference[i].error_bound)
          << "threads=" << threads << " start=" << starts[i];
      EXPECT_EQ(batch[i].nodes_expanded, reference[i].nodes_expanded);
    }
  }
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);

  const numeric::UniformizationUntilEngine dfpg(transformed, psi, dead);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto oracle = dfpg.compute(starts[i], c.t, c.r, options);
    EXPECT_NEAR(reference[i].probability, oracle.probability,
                reference[i].error_bound + oracle.error_bound + 1e-12)
        << "start=" << starts[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomModels, ClassExplorerTails,
    ::testing::Values(TailCase{3, 8, 3, 1.5, 1.0, 1e-10, false},
                      TailCase{7, 8, 2, 2.0, 3.0, 1e-10, false},
                      TailCase{11, 9, 4, 1.0, 0.5, 1e-10, false},
                      TailCase{19, 8, 3, 1.5, 6.0, 1e-10, false},
                      TailCase{24, 9, 3, 1.5, 4.0, 1e-6, true},
                      TailCase{22, 9, 3, 2.0, 4.0, 1e-6, true}));

// ---------------------------------------------------- retained workspace

/// One compute_batch call and what it returned: the per-start results, or
/// that it ran out of its class budget.
struct BatchQuery {
  const numeric::SignatureClassUntilEngine* engine = nullptr;
  std::vector<core::StateIndex> starts;
  double t = 0.0;
  double r = 0.0;
  numeric::PathExplorerOptions options;
};

struct BatchOutcome {
  std::vector<numeric::UntilUniformizationResult> results;
  bool budget_exhausted = false;
};

BatchOutcome run_batch(const BatchQuery& query) {
  BatchOutcome outcome;
  try {
    outcome.results = query.engine->compute_batch(query.starts, query.t, query.r, query.options);
  } catch (const numeric::NodeBudgetError&) {
    outcome.budget_exhausted = true;
  }
  return outcome;
}

/// The same call on a thread that has never run the engine, so its
/// workspace starts empty.
BatchOutcome run_batch_on_fresh_thread(const BatchQuery& query) {
  BatchOutcome outcome;
  std::thread([&] { outcome = run_batch(query); }).join();
  return outcome;
}

void expect_bitwise_equal(const BatchOutcome& reused, const BatchOutcome& fresh,
                          const std::string& label) {
  EXPECT_EQ(reused.budget_exhausted, fresh.budget_exhausted) << label;
  ASSERT_EQ(reused.results.size(), fresh.results.size()) << label;
  for (std::size_t i = 0; i < fresh.results.size(); ++i) {
    const numeric::UntilUniformizationResult& a = reused.results[i];
    const numeric::UntilUniformizationResult& b = fresh.results[i];
    EXPECT_EQ(a.probability, b.probability) << label << " slot=" << i;
    EXPECT_EQ(a.error_bound, b.error_bound) << label << " slot=" << i;
    EXPECT_EQ(a.paths_stored, b.paths_stored) << label << " slot=" << i;
    EXPECT_EQ(a.paths_truncated, b.paths_truncated) << label << " slot=" << i;
    EXPECT_EQ(a.signature_classes, b.signature_classes) << label << " slot=" << i;
    EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << label << " slot=" << i;
    EXPECT_EQ(a.max_depth, b.max_depth) << label << " slot=" << i;
  }
}

/// The 11-module NMR calibration model (Table 5.5, or its variable
/// failure-rate variant of Table 5.7) with Psi = allUp made absorbing, and
/// every other state as a start.
struct NmrSetup {
  explicit NmrSetup(bool variable_failure_rate = false)
      : model(models::make_tmr(models::chapter5_nmr_config(variable_failure_rate))) {}

  core::Mrm model;
  std::vector<bool> psi = model.labels().states_with("allUp");
  numeric::SignatureClassUntilEngine engine{core::make_absorbing(model, psi), psi,
                                            std::vector<bool>(model.num_states(), false)};
  std::vector<core::StateIndex> starts() const {
    std::vector<core::StateIndex> live;
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (!psi[s]) live.push_back(s);
    }
    return live;
  }
};

TEST(ClassExplorerWorkspace, ReuseAcrossSolvesIsInvisibleAtEveryThreadCount) {
  // The engine keeps its frontier buffers in one workspace per calling
  // thread. Run a sequence that leaves that workspace in every state it can
  // be left in — a hand-off (chunk buffers filled), a small batch with
  // another signature width, a sweep that runs to its end without handing
  // off, a sweep that throws with its frontier half built — and check each
  // call against the same call on a thread whose workspace is empty.
  const NmrSetup nmr;
  const core::Mrm phone = models::make_cellphone();
  std::vector<bool> phone_phi = phone.labels().states_with("Call_Idle");
  const std::vector<bool> doze = phone.labels().states_with("Doze");
  const std::vector<bool> phone_psi = phone.labels().states_with("Call_Initiated");
  std::vector<bool> phone_absorb(phone.num_states());
  std::vector<bool> phone_dead(phone.num_states());
  std::vector<core::StateIndex> phone_starts;
  for (core::StateIndex s = 0; s < phone.num_states(); ++s) {
    phone_phi[s] = phone_phi[s] || doze[s];
    phone_absorb[s] = !phone_phi[s] || phone_psi[s];
    phone_dead[s] = !phone_phi[s] && !phone_psi[s];
    if (!phone_psi[s] && !phone_dead[s]) phone_starts.push_back(s);
  }
  ASSERT_FALSE(phone_starts.empty());
  const numeric::SignatureClassUntilEngine phone_engine(
      core::make_absorbing(phone, phone_absorb), phone_psi, phone_dead);

  for (const unsigned threads : {1u, 2u, 8u}) {
    numeric::PathExplorerOptions options;
    options.truncation_probability = 1e-8;
    options.threads = threads;
    numeric::PathExplorerOptions starved = options;
    // The NMR sweep processes about 17 000 classes before it hands off at
    // t = 100; half of that runs out inside the level sweep.
    starved.max_nodes = 8000;
    const std::vector<std::pair<std::string, BatchQuery>> sequence = {
        {"nmr hand-off", {&nmr.engine, nmr.starts(), 100.0, 2000.0, options}},
        {"cellphone", {&phone_engine, phone_starts, 24.0, 400.0, options}},
        {"nmr sweep", {&nmr.engine, nmr.starts(), 20.0, 400.0, options}},
        {"nmr budget", {&nmr.engine, nmr.starts(), 100.0, 2000.0, starved}},
        {"nmr hand-off again", {&nmr.engine, nmr.starts(), 100.0, 2000.0, options}},
    };
    for (const auto& [name, query] : sequence) {
      const std::string label = name + " threads=" + std::to_string(threads);
      expect_bitwise_equal(run_batch(query), run_batch_on_fresh_thread(query), label);
    }
    // The sequence covers what it claims: the hand-off runs hand off, the
    // plain sweep does not, and the starved run throws.
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
    run_batch(sequence[2].second);
    EXPECT_EQ(obs::StatsRegistry::global().counter("classdp.hybrid_handoffs"), 0u);
    obs::StatsRegistry::global().reset();
    run_batch(sequence[0].second);
    EXPECT_EQ(obs::StatsRegistry::global().counter("classdp.hybrid_handoffs"), 1u);
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
    EXPECT_TRUE(run_batch(sequence[3].second).budget_exhausted);
  }
}

TEST(ClassExplorerWorkspace, RepeatedIdenticalSolveDoesNotGrowTheWorkspace) {
  // On a fresh thread the first solve sizes the workspace; an identical
  // second solve fits in what the first left, so the
  // classdp.workspace_bytes gauge reads the same bytes after both. Each
  // level swaps the live and folded frontier buffers, so this holds only if
  // the second solve starts with each buffer in the role it had in the
  // first, whatever the first solve's level count.
  for (const bool variable_failure_rate : {false, true}) {
    const NmrSetup nmr(variable_failure_rate);
    numeric::PathExplorerOptions options;
    options.threads = 1;
    double first = 0.0;
    double second = 0.0;
    obs::set_stats_enabled(true);
    std::thread([&] {
      obs::StatsRegistry::global().reset();
      nmr.engine.compute_batch(nmr.starts(), 100.0, 2000.0, options);
      first = obs::StatsRegistry::global().gauge("classdp.workspace_bytes");
      obs::StatsRegistry::global().reset();
      nmr.engine.compute_batch(nmr.starts(), 100.0, 2000.0, options);
      second = obs::StatsRegistry::global().gauge("classdp.workspace_bytes");
      obs::StatsRegistry::global().reset();
    }).join();
    obs::set_stats_enabled(false);
    EXPECT_GT(first, 0.0) << "variable=" << variable_failure_rate;
    EXPECT_EQ(second, first) << "variable=" << variable_failure_rate;
  }
}

class ClassDpCheckerAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassDpCheckerAgreement, CheckerLevelResultsMatchDfpgEngine) {
  // The default checker (class-DP with the hybrid armed) against the DFPG
  // reference engine called directly on the same transformed model: both
  // bracket the exact value from below, so they agree within their summed
  // error bounds.
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilMasks masks = make_masks(model, seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  const auto checked = checker::until_probabilities(model, masks.phi, masks.psi,
                                                    logic::up_to(t), logic::up_to(r));
  const numeric::UniformizationUntilEngine dfpg(setup.transformed, setup.psi, setup.dead);
  ASSERT_EQ(checked.size(), model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto oracle = dfpg.compute(s, t, r);
    EXPECT_NEAR(checked[s].probability, oracle.probability,
                checked[s].error_bound + oracle.error_bound + 1e-12)
        << "seed=" << seed << " state=" << s;
  }

  // And the checker's values are exactly the engine's batch over the
  // non-trivial starts (Psi starts score 1, dead starts 0 up front).
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!setup.psi[s] && !setup.dead[s]) starts.push_back(s);
  }
  const numeric::SignatureClassUntilEngine classdp(setup.transformed, setup.psi, setup.dead);
  const auto batch = classdp.compute_batch(starts, t, r);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(checked[starts[i]].probability, batch[i].probability) << "state=" << starts[i];
    EXPECT_EQ(checked[starts[i]].error_bound, batch[i].error_bound) << "state=" << starts[i];
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassDpCheckerAgreement,
                         ::testing::Values(3u, 11u, 19u, 27u, 35u, 47u));

TEST(ClassDpCheckerFallback, TinyNodeBudgetDegradesGracefully) {
  // With the DP's class budget forced to a handful of frontier rows the
  // checker must fall back (per BudgetPolicy) instead of propagating
  // NodeBudgetError, and still return a sane probability vector.
  const core::Mrm model = make_model(7);
  std::vector<bool> phi(model.num_states(), true);
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (const auto value : psi) any_psi = any_psi || value;
  if (!any_psi) psi[0] = true;

  checker::CheckerOptions options;
  options.uniformization.max_nodes = 3;
  std::vector<checker::UntilValue> values;
  ASSERT_NO_THROW(values = checker::until_probabilities(model, phi, psi, logic::up_to(1.5),
                                                        logic::up_to(6.0), options));
  for (std::size_t s = 0; s < values.size(); ++s) {
    EXPECT_GE(values[s].probability, -1e-12) << "state=" << s;
    EXPECT_LE(values[s].probability, 1.0 + 1e-12) << "state=" << s;
  }
}

TEST(ClassDpCheckerFallback, BudgetExhaustionDegradesToDiscretizationAroundTheDfpgOracle) {
  // When the batched DP exhausts max_nodes mid-flight the checker redoes
  // every non-trivial start with the discretization engine at the adapted
  // step, counting each once in uniformization.fallbacks, and each degraded
  // interval contains the DFPG oracle's value.
  obs::set_stats_enabled(true);
  obs::StatsRegistry::global().reset();

  const std::uint32_t seed = 1;
  const core::Mrm model = make_model(seed);
  ASSERT_TRUE(model.has_impulse_rewards());  // the chooser keeps uniformization
  const UntilMasks masks = make_masks(model, seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = 3.0;
  const double r = 8.0;

  // The non-trivial starts are exactly the states the checker batches (Psi
  // starts score 1 up front, dead starts 0); a budget one class short of
  // their sweep exhausts it.
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!setup.psi[s] && !setup.dead[s]) starts.push_back(s);
  }
  ASSERT_FALSE(starts.empty());
  const numeric::SignatureClassUntilEngine classdp(setup.transformed, setup.psi, setup.dead);
  const std::size_t batch_nodes = classdp.compute_batch(starts, t, r).front().nodes_expanded;
  ASSERT_GT(batch_nodes, 1u);

  checker::CheckerOptions starved;
  starved.uniformization.max_nodes = batch_nodes - 1;
  obs::StatsRegistry::global().reset();
  const auto degraded = checker::until_probabilities(model, masks.phi, masks.psi,
                                                     logic::up_to(t), logic::up_to(r), starved);
  EXPECT_EQ(obs::StatsRegistry::global().counter("uniformization.fallbacks"), starts.size());

  const numeric::UniformizationUntilEngine dfpg(setup.transformed, setup.psi, setup.dead);
  ASSERT_EQ(degraded.size(), model.num_states());
  for (const core::StateIndex s : starts) {
    const auto oracle = dfpg.compute(s, t, r);
    EXPECT_TRUE(degraded[s].bound.contains(oracle.probability))
        << "state " << s << ": " << degraded[s].bound.to_string() << " vs DFPG "
        << oracle.probability;
  }

  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);
}

}  // namespace
}  // namespace csrlmrm
