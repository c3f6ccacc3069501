// Differential test of the plan's CSE pass and the shared transform cache.
// For random MRMs and random formula batches, the batch compiled with CSE on
// and executed at 1/2/8 worker threads against one TransformCache must
// reproduce the reference BITWISE: one CSE-off plan per formula at one
// thread, each executed against a fresh cache — Algorithm 4.1 evaluated
// node by node with nothing shared between formulas. CSE only decides how
// often the checker/operator_eval.hpp functions run, and the cache only
// whether a transform is rebuilt; this suite is the proof that neither
// changes a bit of verdicts, value enclosures or raw values. A second test
// pins every accessor of the ModelChecker facade to the same reference, and
// a third splices formulas that fail at solve time into the batch: they fail
// alone, with their solo failure, and leave the other roots' bits alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "checker/sat.hpp"
#include "core/transform.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "oracle/checker_accessors.hpp"
#include "oracle/random_formula.hpp"
#include "oracle/random_mrm.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm {
namespace {

models::RandomMrmConfig calm_model() {
  models::RandomMrmConfig config;
  config.num_states = 5;
  config.max_rate = 0.8;  // keeps Lambda * t small for until formulas
  return config;
}

/// A batch of three structurally diverse formulas for one seed. Offsets are
/// co-prime-ish so batches mix operator kinds; reusing seed-derived offsets
/// keeps everything reproducible.
std::vector<logic::FormulaPtr> make_batch(std::uint32_t seed) {
  return {models::make_random_formula(seed),
          models::make_random_formula(seed * 3 + 500),
          models::make_random_formula(seed * 7 + 900)};
}

checker::CheckerOptions base_options() {
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  return options;
}

/// The reference: `formula` alone in a CSE-off plan with a fresh transform
/// cache, at one thread.
plan::FormulaResult reference(const core::Mrm& model, const logic::FormulaPtr& formula) {
  checker::CheckerOptions options = base_options();
  options.threads = 1;
  plan::PlanOptions cse_off;
  cse_off.cse = false;
  const plan::Plan compiled = plan::compile(model, {formula}, options, cse_off);
  core::TransformCache fresh(model);
  return plan::execute(compiled, model, fresh).formulas.front();
}

void expect_bitwise_equal(const checker::ProbabilityBound& expected,
                          const checker::ProbabilityBound& actual, std::size_t state) {
  EXPECT_EQ(expected.lower, actual.lower) << "state " << state;
  EXPECT_EQ(expected.upper, actual.upper) << "state " << state;
}

void expect_bitwise_equal(const std::vector<checker::ProbabilityBound>& expected,
                          const std::vector<checker::ProbabilityBound>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    expect_bitwise_equal(expected[s], actual[s], s);
  }
}

void expect_bitwise_equal(const std::vector<checker::UntilValue>& expected,
                          const std::vector<checker::UntilValue>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_EQ(expected[s].probability, actual[s].probability) << "state " << s;
    EXPECT_EQ(expected[s].error_bound, actual[s].error_bound) << "state " << s;
    expect_bitwise_equal(expected[s].bound, actual[s].bound, s);
  }
}

void expect_bitwise_equal(const std::vector<double>& expected,
                          const std::vector<double>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_EQ(expected[s], actual[s]) << "state " << s;
  }
}

void expect_bitwise_equal(const plan::FormulaResult& expected,
                          const plan::FormulaResult& actual) {
  EXPECT_EQ(expected.sat, actual.sat);
  EXPECT_EQ(expected.unknown, actual.unknown);
  ASSERT_EQ(expected.verdicts.size(), actual.verdicts.size());
  for (std::size_t s = 0; s < expected.verdicts.size(); ++s) {
    EXPECT_EQ(expected.verdicts[s], actual.verdicts[s]) << "state " << s;
  }
  ASSERT_EQ(expected.has_bounds, actual.has_bounds);
  expect_bitwise_equal(expected.bounds, actual.bounds);
  ASSERT_EQ(expected.has_probabilities, actual.has_probabilities);
  expect_bitwise_equal(expected.probabilities, actual.probabilities);
  ASSERT_EQ(expected.has_values, actual.has_values);
  expect_bitwise_equal(expected.values, actual.values);
}

class PlanDifferentialSuite : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PlanDifferentialSuite, BatchMatchesDirectCheckerBitwiseAtEveryThreadCount) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = models::make_random_mrm(seed * 11 + 2, calm_model());
  const std::vector<logic::FormulaPtr> batch = make_batch(seed);

  std::vector<plan::FormulaResult> expected;
  for (const auto& formula : batch) expected.push_back(reference(model, formula));

  // One cache across the thread counts, as a daemon keeps one per model:
  // the later runs take every transform from it.
  core::TransformCache transforms(model);
  for (const unsigned threads : {1u, 2u, 8u}) {
    checker::CheckerOptions options = base_options();
    options.threads = threads;
    const plan::Plan compiled = plan::compile(model, batch, options);
    const plan::PlanResult planned = plan::execute(compiled, model, transforms);
    ASSERT_EQ(planned.formulas.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " formula[" + std::to_string(i) +
                   "]=" + logic::to_string(batch[i]));
      expect_bitwise_equal(expected[i], planned.formulas[i]);
    }
  }
}

// The ModelChecker facade must hand out the reference through every
// accessor. One checker serves the whole batch, so later formulas take their
// transforms from the cache the earlier ones filled.
TEST_P(PlanDifferentialSuite, PassesOffStillMatchesDirectChecker) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = models::make_random_mrm(seed * 11 + 2, calm_model());
  checker::ModelChecker direct(model, base_options());
  for (const auto& formula : make_batch(seed)) {
    SCOPED_TRACE(logic::to_string(formula));
    const plan::FormulaResult expected = reference(model, formula);
    EXPECT_EQ(direct.satisfaction_set(formula), expected.sat);
    EXPECT_EQ(unknown_set(direct, formula), expected.unknown);
    const auto verdicts = direct.verdicts(formula);
    ASSERT_EQ(verdicts.size(), expected.verdicts.size());
    for (std::size_t s = 0; s < verdicts.size(); ++s) {
      EXPECT_EQ(verdicts[s], expected.verdicts[s]) << "state " << s;
    }
    if (expected.has_bounds) expect_bitwise_equal(expected.bounds, direct.value_bounds(formula));
    if (expected.has_probabilities) {
      expect_bitwise_equal(expected.probabilities, direct.path_probabilities(formula));
    }
    if (formula->kind == logic::FormulaKind::kSteady) {
      expect_bitwise_equal(expected.values, steady_probabilities(direct, formula));
    }
    if (formula->kind == logic::FormulaKind::kExpectedReward) {
      expect_bitwise_equal(expected.values, expected_rewards(direct, formula));
    }
  }
}

/// The dynamic type and message of a recorded failure.
std::pair<std::type_index, std::string> describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& failure) {
    return {typeid(failure), failure.what()};
  } catch (...) {
    return {typeid(void), "not a std::exception"};
  }
}

// Formulas that fail only when the plan runs, spliced into the random batch:
// an until bound shape outside thesis sections 4.5/4.6, a point-time until
// whose Psi-states break Theorem 4.2's Psi => Phi, a disjunction of the two
// (a plan of it alone throws its left operand's failure first), and a random
// formula conjoined with the unsupported one. Every other root must stay
// bitwise its reference, and each failed root must hold the exception type
// and message its solo ModelChecker call throws.
TEST_P(PlanDifferentialSuite, SolveTimeFailuresFailAloneAtEveryThreadCount) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = models::make_random_mrm(seed * 11 + 2, calm_model());
  const logic::FormulaPtr unsupported = logic::parse_formula("P(>0.5)[TT U[1,2][0,5] TT]");
  const logic::FormulaPtr psi_not_phi = logic::parse_formula("P(<0.5)[FF U[1,1][0,5] TT]");
  std::vector<logic::FormulaPtr> batch = make_batch(seed);
  batch.insert(batch.begin() + 1, unsupported);
  batch.push_back(psi_not_phi);
  batch.push_back(logic::make_or(psi_not_phi, unsupported));
  batch.push_back(logic::make_and(batch.front(), unsupported));

  std::vector<std::exception_ptr> solo_failures(batch.size());
  std::vector<plan::FormulaResult> expected(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    checker::CheckerOptions options = base_options();
    options.threads = 1;
    checker::ModelChecker solo(model, options);
    try {
      solo.verdicts(batch[i]);
      expected[i] = reference(model, batch[i]);
    } catch (...) {
      solo_failures[i] = std::current_exception();
    }
  }
  for (const std::size_t failing : {std::size_t{1}, batch.size() - 3, batch.size() - 2,
                                    batch.size() - 1}) {
    ASSERT_TRUE(solo_failures[failing]) << logic::to_string(batch[failing]);
  }

  core::TransformCache transforms(model);
  for (const unsigned threads : {1u, 2u, 8u}) {
    checker::CheckerOptions options = base_options();
    options.threads = threads;
    const plan::PlanResult planned =
        plan::execute(plan::compile(model, batch, options), model, transforms);
    ASSERT_EQ(planned.formulas.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " formula[" + std::to_string(i) +
                   "]=" + logic::to_string(batch[i]));
      const plan::FormulaResult& result = planned.formulas[i];
      if (solo_failures[i]) {
        ASSERT_TRUE(result.error);
        EXPECT_TRUE(result.verdicts.empty());
        const auto [type, message] = describe(result.error);
        const auto [solo_type, solo_message] = describe(solo_failures[i]);
        EXPECT_TRUE(type == solo_type) << type.name() << " vs " << solo_type.name();
        EXPECT_EQ(message, solo_message);
      } else {
        EXPECT_FALSE(result.error);
        expect_bitwise_equal(expected[i], result);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferentialSuite, ::testing::Range(1u, 101u));

}  // namespace
}  // namespace csrlmrm
