// Golden-file tests of the plan printer (`mrmcheck --explain`): the textual
// plan for each corpus batch is compared byte-for-byte against a checked-in
// golden under tests/golden_plans/. The format is part of the tool's
// interface — scripts diff --explain output across revisions — so any
// intentional change must regenerate the goldens (set
// CSRLMRM_UPDATE_GOLDEN=1 and rerun this suite) and show up in review.
//
// The corpus mirrors the thesis experiments: the TMR workload behind
// Tables 5.3/5.4 (time- and time-reward-bounded until on the triple modular
// redundant system) and the cellphone model's mixed operator batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/model_files.hpp"
#include "logic/parser.hpp"
#include "plan/compiler.hpp"
#include "plan/printer.hpp"

namespace csrlmrm {
namespace {

std::string models_dir() { return CSRLMRM_EXAMPLE_MODELS_DIR; }
std::string golden_dir() { return CSRLMRM_GOLDEN_PLANS_DIR; }

core::Mrm load_example(const std::string& name) {
  const std::string base = models_dir() + "/" + name;
  return io::load_mrm(base + ".tra", base + ".lab", base + ".rewr", base + ".rewi");
}

std::vector<logic::FormulaPtr> parse_batch(const std::vector<std::string>& texts) {
  std::vector<logic::FormulaPtr> batch;
  for (const auto& text : texts) batch.push_back(logic::parse_formula(text));
  return batch;
}

void compare_against_golden(const std::string& golden_name, const std::string& actual) {
  const std::string path = golden_dir() + "/" + golden_name;
  if (std::getenv("CSRLMRM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with CSRLMRM_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual) << "plan text drifted from " << golden_name
                                    << "; if intentional, regenerate with "
                                       "CSRLMRM_UPDATE_GOLDEN=1";
}

void check_corpus(const std::string& model_name, const std::string& golden_name,
                  const std::vector<std::string>& texts) {
  const core::Mrm model = load_example(model_name);
  const auto batch = parse_batch(texts);
  checker::CheckerOptions options;
  const plan::Plan compiled = plan::compile(model, batch, options);
  compare_against_golden(golden_name, plan::print_plan(compiled));
}

// Table 5.4 workload: the same time-reward-bounded until at two thresholds
// (one shared solve, two compares) plus the plain time-bounded variant
// (Table 5.3) which needs its own solve but shares the label sets.
TEST(PlanPrinterGolden, TmrTimeRewardBatch) {
  check_corpus("tmr", "tmr_time_reward.txt",
               {"P(>0.1)[Sup U[0,100][0,3000] failed]",
                "P(>0.5)[Sup U[0,100][0,3000] failed]",
                "P(>0.1)[Sup U[0,100] failed]"});
}

// Unbounded + two-phase + point-interval: one line per until class, so the
// golden pins the class annotations (P0 / P1' / point) next to each other.
TEST(PlanPrinterGolden, TmrUntilClassZoo) {
  check_corpus("tmr", "tmr_until_classes.txt",
               {"P(>0.9)[Sup U failed]", "P(>0.1)[Sup U[10,100] failed]",
                "P(>0.05)[Sup U[100,100][0,3000] failed]"});
}

// Cellphone mixed-operator batch: steady-state, next, until, and all three
// reward queries in one plan — exercises every printed op kind.
TEST(PlanPrinterGolden, CellphoneMixedBatch) {
  check_corpus("cellphone", "cellphone_mixed.txt",
               {"S(>0.5) Doze", "P(>0.8)[X[0,10] Call_Idle]",
                "P(>0.1)[!Off U[0,5][0,20] Call_Initiated]", "R(<=25)[C[0,10]]",
                "R(<100)[F Off]", "R(>=0.1)[S]"});
}

// Nested operators and boolean structure: the inner P becomes its own
// solve+compare feeding the outer until's operand set, and the repeated
// subformula (!Off) dedups to one op.
TEST(PlanPrinterGolden, CellphoneNestedBatch) {
  check_corpus("cellphone", "cellphone_nested.txt",
               {"P(>0.5)[(!Off && P(>0.8)[X[0,10] Call_Idle]) U[0,5] Call_Initiated]",
                "P(>0.1)[!Off U[0,5] Call_Initiated]"});
}

// Printing must be a pure function of the plan: two prints of the same plan
// and prints of two identically-compiled plans are byte-identical.
TEST(PlanPrinter, DeterministicAcrossCompiles) {
  const core::Mrm model = load_example("tmr");
  const auto texts = std::vector<std::string>{"P(>0.1)[Sup U[0,100][0,3000] failed]",
                                              "P(>0.5)[Sup U[0,100][0,3000] failed]"};
  checker::CheckerOptions options;
  const plan::Plan first = plan::compile(model, parse_batch(texts), options);
  const plan::Plan second = plan::compile(model, parse_batch(texts), options);
  EXPECT_EQ(plan::print_plan(first), plan::print_plan(first));
  EXPECT_EQ(plan::print_plan(first), plan::print_plan(second));
}

}  // namespace
}  // namespace csrlmrm
