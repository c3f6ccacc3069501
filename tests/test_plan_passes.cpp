// Pass-level unit tests of the plan compiler and the transform cache the
// executor shares: CSE is pinned through the Plan's deterministic summary
// fields and the `plan.*` stats counters, transform sharing through the
// `transform.cache_hits` counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checker/sat.hpp"
#include "core/transform.hpp"
#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "obs/stats.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm {
namespace {

std::vector<logic::FormulaPtr> parse_batch(const std::vector<std::string>& texts) {
  std::vector<logic::FormulaPtr> batch;
  for (const auto& text : texts) batch.push_back(logic::parse_formula(text));
  return batch;
}

/// Counter-reading tests need the stats layer armed (the default test
/// process keeps it off); every test leaves the registry clean.
class PlanPasses : public ::testing::Test {
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

// ---------------------------------------------------------------------------
// CSE pass
// ---------------------------------------------------------------------------

// The Table 5.4-style batch: two thresholds over one time-reward until plus
// the time-only variant. CSE must intern the two label sets once and share
// the entire time-reward solve between the thresholds.
TEST_F(PlanPasses, CseDedupCountsPinnedOnTmrBatch) {
  const core::Mrm model = models::make_tmr();
  const auto batch = parse_batch({"P(>0.1)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.5)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.1)[Sup U[0,100] failed]"});
  checker::CheckerOptions options;
  const plan::Plan compiled = plan::compile(model, batch, options);

  // Ops: Sup, failed, until[0,100][0,3000], cmp>0.1, cmp>0.5, until[0,100],
  // cmp>0.1 — seven, not the 12 a per-formula lowering builds.
  EXPECT_EQ(compiled.ops.size(), 7u);
  // Hits: formula 2 re-finds Sup, failed, and the whole solve; formula 3
  // re-finds the two label sets.
  EXPECT_EQ(compiled.cse_hits, 5u);

  // The same numbers flow into the global counters (what `--stats` reports).
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("plan.cse.hits"), compiled.cse_hits);
  EXPECT_EQ(registry.counter("plan.ops"), compiled.ops.size());
  EXPECT_EQ(registry.counter("plan.compile.calls"), 1u);
  // Compiling builds no transform.
  EXPECT_EQ(registry.counter("transform.cache_hits"), 0u);

  // The shared until solve is referenced by both compare ops.
  std::size_t shared_solves = 0;
  for (const auto& op : compiled.ops) {
    if (op.kind == plan::OpKind::kUntilSolve && op.uses == 2) ++shared_solves;
  }
  EXPECT_EQ(shared_solves, 1u);
}

TEST_F(PlanPasses, CseOffLowersEveryOccurrenceSeparately) {
  const core::Mrm model = models::make_tmr();
  const auto batch = parse_batch({"P(>0.1)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.5)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.1)[Sup U[0,100] failed]"});
  checker::CheckerOptions options;
  plan::PlanOptions no_cse;
  no_cse.cse = false;
  const plan::Plan compiled = plan::compile(model, batch, options, no_cse);
  EXPECT_EQ(compiled.cse_hits, 0u);
  EXPECT_EQ(obs::StatsRegistry::global().counter("plan.cse.hits"), 0u);
  // More ops than the deduplicated plan, and nothing is shared — the two
  // identical time-reward untils each run their own solve, and every label
  // occurrence is its own op.
  const plan::Plan with_cse = plan::compile(model, batch, options);
  EXPECT_GT(compiled.ops.size(), with_cse.ops.size());
  for (const auto& op : compiled.ops) EXPECT_LE(op.uses, 1u);
}

// ---------------------------------------------------------------------------
// Transform sharing
// ---------------------------------------------------------------------------

// N formulas through one ModelChecker whose untils all run on the same
// M[!Sup v failed] (three P1 horizons and one P2 query): the checker's one
// cache builds that transform for the first and serves the other N-1.
TEST_F(PlanPasses, ModelCheckerBuildsASharedTransformOnce) {
  const core::Mrm model = models::make_tmr();
  checker::ModelChecker checker(model);
  const auto batch = parse_batch({"P(>0.1)[Sup U[0,50] failed]",
                                  "P(>0.1)[Sup U[0,100] failed]",
                                  "P(>0.1)[Sup U[0,150] failed]",
                                  "P(>0.1)[Sup U[0,50][0,300] failed]"});
  for (const auto& formula : batch) checker.verdicts(formula);
  EXPECT_EQ(obs::StatsRegistry::global().counter("transform.cache_hits"), batch.size() - 1);
}

// Two time-reward untils over the same operand sets ([0,50][0,300] and
// [0,100][0,600]) compiled into one plan: both solves draw one shared
// transformed model M[!Phi v Psi], so the second is a transform cache hit.
TEST_F(PlanPasses, SharedTransformServesBothTimeRewardSolves) {
  const core::Mrm model = models::make_tmr();  // has impulse rewards
  checker::CheckerOptions options;
  const plan::Plan batch = plan::compile(
      model, parse_batch({"P(>0.1)[Sup U[0,50][0,300] failed]",
                          "P(>0.1)[Sup U[0,100][0,600] failed]"}),
      options);
  core::TransformCache transforms(model);
  plan::execute(batch, model, transforms);
  EXPECT_EQ(obs::StatsRegistry::global().counter("transform.cache_hits"), 1u);
}

}  // namespace
}  // namespace csrlmrm
