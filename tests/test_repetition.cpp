// In-process repetition: a long-lived process (mrmcheckd) answers the same
// queries hundreds of times with progressively warmer process-lifetime
// caches (PoissonTailCache::global(), per-run TransformCaches). Every
// repetition must be bitwise-identical to the first, cold-cache run — cache
// warmth is a speed effect, never a numeric one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/options.hpp"
#include "core/approx.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/parser.hpp"
#include "oracle/cellphone.hpp"
#include "models/mm1k.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace {

using namespace csrlmrm;

struct Workload {
  core::Mrm model;
  logic::FormulaPtr formula;
  plan::FormulaResult baseline;
};

plan::FormulaResult run_once(const core::Mrm& model, const logic::FormulaPtr& formula) {
  const plan::Plan compiled = plan::compile(model, {formula}, checker::CheckerOptions{});
  core::TransformCache transforms(model);
  plan::PlanResult result = plan::execute(compiled, model, transforms);
  return std::move(result.formulas[0]);
}

void expect_bitwise_equal(const plan::FormulaResult& got, const plan::FormulaResult& want,
                          int iteration) {
  ASSERT_EQ(got.verdicts.size(), want.verdicts.size()) << "iteration " << iteration;
  for (std::size_t s = 0; s < want.verdicts.size(); ++s) {
    EXPECT_EQ(got.verdicts[s], want.verdicts[s]) << "iteration " << iteration << " state " << s;
  }
  ASSERT_EQ(got.has_probabilities, want.has_probabilities) << "iteration " << iteration;
  if (want.has_probabilities) {
    ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
    for (std::size_t s = 0; s < want.probabilities.size(); ++s) {
      EXPECT_TRUE(core::exactly_equal(got.probabilities[s].probability,
                                      want.probabilities[s].probability))
          << "iteration " << iteration << " state " << s;
      EXPECT_TRUE(core::exactly_equal(got.probabilities[s].error_bound,
                                      want.probabilities[s].error_bound))
          << "iteration " << iteration << " state " << s;
    }
  }
  ASSERT_EQ(got.has_values, want.has_values) << "iteration " << iteration;
  if (want.has_values) {
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t s = 0; s < want.values.size(); ++s) {
      EXPECT_TRUE(core::exactly_equal(got.values[s], want.values[s]))
          << "iteration " << iteration << " state " << s;
    }
  }
  ASSERT_EQ(got.has_bounds, want.has_bounds) << "iteration " << iteration;
  if (want.has_bounds) {
    ASSERT_EQ(got.bounds.size(), want.bounds.size());
    for (std::size_t s = 0; s < want.bounds.size(); ++s) {
      EXPECT_TRUE(core::exactly_equal(got.bounds[s].lower, want.bounds[s].lower))
          << "iteration " << iteration << " state " << s;
      EXPECT_TRUE(core::exactly_equal(got.bounds[s].upper, want.bounds[s].upper))
          << "iteration " << iteration << " state " << s;
    }
  }
}

/// 500 checks over mixed models in one process. Baselines are computed with
/// the shared Omega cache cleared (the fresh-process state); every later
/// repetition — including the ones served entirely from warm Poisson/Omega
/// tables — must reproduce them double for double.
TEST(Repetition, FiveHundredChecksAreBitwiseStable) {
  std::vector<Workload> workloads;
  const auto add = [&workloads](core::Mrm model, const std::string& text) {
    Workload w{std::move(model), logic::parse_formula(text), {}};
    workloads.push_back(std::move(w));
  };
  add(models::make_tmr(), "P(>0.1)[Sup U[0,10][0,300] failed]");
  add(models::make_tmr(), "S(<0.9) allUp");
  add(models::make_tmr(), "R(<100)[C[0,5]]");
  add(models::make_cellphone(), "P(>0.4)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]");
  add(models::make_mm1k(), "P(>0.05)[busy U[0,4][0,40] full]");
  add(models::make_mm1k(), "S(>0.01) full");

  for (Workload& workload : workloads) {
    workload.baseline = run_once(workload.model, workload.formula);
  }

  constexpr int kChecks = 500;
  for (int i = 0; i < kChecks; ++i) {
    const Workload& workload = workloads[static_cast<std::size_t>(i) % workloads.size()];
    const plan::FormulaResult repeat = run_once(workload.model, workload.formula);
    expect_bitwise_equal(repeat, workload.baseline, i);
    if (HasFatalFailure()) return;  // one diverged iteration is diagnosis enough
  }
}

}  // namespace
