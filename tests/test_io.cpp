// The .tra/.lab/.rewr/.rewi readers and writers (appendix file formats).
#include "io/model_files.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "models/wavelan.hpp"
#include "obs/json.hpp"

namespace csrlmrm::io {
namespace {

TEST(IoTra, ReadsAppendixFormat) {
  std::istringstream in(
      "STATES 3\n"
      "TRANSITIONS 2\n"
      "1 2 0.5\n"
      "2 3 1.25\n");
  const core::RateMatrix rates = read_tra(in);
  EXPECT_EQ(rates.num_states(), 3u);
  EXPECT_DOUBLE_EQ(rates.rate(0, 1), 0.5);  // 1-based file -> 0-based memory
  EXPECT_DOUBLE_EQ(rates.rate(1, 2), 1.25);
  EXPECT_TRUE(rates.is_absorbing(2));
}

TEST(IoTra, SkipsBlankAndCommentLines) {
  std::istringstream in(
      "STATES 2\n"
      "\n"
      "% a comment\n"
      "TRANSITIONS 1\n"
      "1 2 3.0\n");
  EXPECT_DOUBLE_EQ(read_tra(in).rate(0, 1), 3.0);
}

TEST(IoTra, RejectsWrongTransitionCount) {
  std::istringstream in(
      "STATES 2\nTRANSITIONS 2\n1 2 1.0\n");
  EXPECT_THROW(read_tra(in), ModelFileError);
}

TEST(IoTra, RejectsOutOfRangeState) {
  std::istringstream in("STATES 2\nTRANSITIONS 1\n1 5 1.0\n");
  try {
    read_tra(in);
    FAIL() << "expected ModelFileError";
  } catch (const ModelFileError& error) {
    EXPECT_EQ(error.line(), 3u);
  }
}

TEST(IoTra, RejectsMissingHeaders) {
  std::istringstream no_states("TRANSITIONS 0\n");
  EXPECT_THROW(read_tra(no_states), ModelFileError);
  std::istringstream garbage("STATES 2\nNOPE 1\n");
  EXPECT_THROW(read_tra(garbage), ModelFileError);
}

TEST(IoLab, ReadsDeclarationsAndAssignments) {
  std::istringstream in(
      "#DECLARATION\n"
      "up down busy\n"
      "#END\n"
      "1 up,busy\n"
      "2 down\n");
  const core::Labeling labels = read_lab(in, 2);
  EXPECT_TRUE(labels.has(0, "up"));
  EXPECT_TRUE(labels.has(0, "busy"));
  EXPECT_TRUE(labels.has(1, "down"));
  EXPECT_FALSE(labels.has(1, "up"));
  EXPECT_TRUE(labels.is_declared("busy"));
}

TEST(IoLab, AcceptsSpaceSeparatedPropositions) {
  std::istringstream in("#DECLARATION\na b\n#END\n1 a b\n");
  const core::Labeling labels = read_lab(in, 1);
  EXPECT_TRUE(labels.has(0, "a"));
  EXPECT_TRUE(labels.has(0, "b"));
}

TEST(IoLab, RejectsUndeclaredProposition) {
  std::istringstream in("#DECLARATION\na\n#END\n1 b\n");
  EXPECT_THROW(read_lab(in, 1), ModelFileError);
}

TEST(IoLab, RejectsMissingEnd) {
  std::istringstream in("#DECLARATION\na b\n1 a\n");
  EXPECT_THROW(read_lab(in, 1), ModelFileError);
}

TEST(IoRewr, ReadsRewardsAndDefaultsToZero) {
  std::istringstream in("2 80\n3 1319\n");
  const auto rewards = read_rewr(in, 4);
  EXPECT_DOUBLE_EQ(rewards[0], 0.0);
  EXPECT_DOUBLE_EQ(rewards[1], 80.0);
  EXPECT_DOUBLE_EQ(rewards[2], 1319.0);
  EXPECT_DOUBLE_EQ(rewards[3], 0.0);
}

TEST(IoRewi, ReadsImpulseMatrix) {
  std::istringstream in("TRANSITIONS 2\n1 2 0.02\n2 3 0.33\n");
  const auto impulses = read_rewi(in, 3);
  EXPECT_DOUBLE_EQ(impulses.at(0, 1), 0.02);
  EXPECT_DOUBLE_EQ(impulses.at(1, 2), 0.33);
  EXPECT_DOUBLE_EQ(impulses.at(2, 0), 0.0);
}

TEST(IoRewi, RejectsCountMismatch) {
  std::istringstream in("TRANSITIONS 3\n1 2 0.02\n");
  EXPECT_THROW(read_rewi(in, 2), ModelFileError);
}

class IoRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process and test case — see MrmcheckCli::SetUp below.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = std::filesystem::temp_directory_path() /
                 (std::string("csrlmrm_io_") + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(directory_);
    prefix_ = (directory_ / "model").string();
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::filesystem::path directory_;
  std::string prefix_;
};

TEST_F(IoRoundTrip, SaveThenLoadPreservesTheWavelanModel) {
  const core::Mrm original = models::make_wavelan();
  save_mrm(original, prefix_);
  const core::Mrm loaded =
      load_mrm(prefix_ + ".tra", prefix_ + ".lab", prefix_ + ".rewr", prefix_ + ".rewi");

  ASSERT_EQ(loaded.num_states(), original.num_states());
  for (core::StateIndex s = 0; s < original.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(loaded.state_reward(s), original.state_reward(s));
    EXPECT_EQ(loaded.labels().labels_of(s), original.labels().labels_of(s));
    for (core::StateIndex s2 = 0; s2 < original.num_states(); ++s2) {
      EXPECT_DOUBLE_EQ(loaded.rates().rate(s, s2), original.rates().rate(s, s2));
      EXPECT_DOUBLE_EQ(loaded.impulse_reward(s, s2), original.impulse_reward(s, s2));
    }
  }
}

TEST_F(IoRoundTrip, LoadWithoutRewiGivesZeroImpulses) {
  const core::Mrm original = models::make_wavelan();
  save_mrm(original, prefix_);
  const core::Mrm loaded = load_mrm(prefix_ + ".tra", prefix_ + ".lab", prefix_ + ".rewr", "");
  EXPECT_FALSE(loaded.has_impulse_rewards());
}

TEST_F(IoRoundTrip, MissingFileThrows) {
  EXPECT_THROW(load_mrm("/nonexistent/x.tra", "/nonexistent/x.lab", "/nonexistent/x.rewr", ""),
               std::runtime_error);
}

#if defined(MRMCHECK_BINARY) && !defined(_WIN32)

// End-to-end tests of the mrmcheck command line: flag errors must exit with
// status 2 (usage) before any checking runs, and --stats must produce
// schema-valid JSON.
class MrmcheckCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process AND per test case: ctest runs each case as its own
    // process in parallel, and a shared directory would let one case's
    // remove_all race another case's writes.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = std::filesystem::temp_directory_path() /
                 (std::string("csrlmrm_cli_") + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(directory_);
    const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
    model_args_ = "'" + models + "/tmr.tra' '" + models + "/tmr.lab' '" + models +
                  "/tmr.rewr' '" + models + "/tmr.rewi'";
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  /// Runs mrmcheck with the given arguments (output silenced) and returns
  /// its exit status, or -1 when the child did not exit normally.
  int run(const std::string& arguments) const {
    const std::string command = std::string("'") + MRMCHECK_BINARY + "' " + arguments +
                                " >/dev/null 2>/dev/null";
    const int status = std::system(command.c_str());
    if (status == -1 || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

  /// Like run(), but captures standard output into `output`.
  int run_capturing(const std::string& arguments, std::string& output) const {
    const std::filesystem::path stdout_file = directory_ / "stdout.txt";
    const std::string command = std::string("'") + MRMCHECK_BINARY + "' " + arguments +
                                " >'" + stdout_file.string() + "' 2>/dev/null";
    const int status = std::system(command.c_str());
    std::ifstream in(stdout_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    output = buffer.str();
    if (status == -1 || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

  /// Writes `text` into the temp directory; returns the quoted path.
  std::string write_file(const char* name, const std::string& text) const {
    std::ofstream out(directory_ / name);
    out << text;
    return "'" + (directory_ / name).string() + "'";
  }

  /// One counter of a --stats JSON file, 0 when the run never bumped it.
  static double stats_counter(const std::string& stats_file, const char* name) {
    std::ifstream in(stats_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const obs::JsonValue stats = obs::parse_json(buffer.str());
    const obs::JsonValue* counters = stats.find("counters");
    if (counters == nullptr) return -1.0;
    const obs::JsonValue* value = counters->find(name);
    return value == nullptr ? 0.0 : value->as_number();
  }

  /// Writes a three-state cycle (a -> a -> b -> a, unit rates, integer state
  /// rewards, no impulses) into the temp directory and returns its
  /// quoted .tra/.lab/.rewr argument string. Integer rewards keep the
  /// discretization fallback feasible; state 1's P2 value for
  /// "a U[0,1][0,10] b" is 1 - 2/e ~ 0.2584, so thresholds near 0.26 sit
  /// inside any coarse engine's error band.
  std::string write_cycle_model() const {
    const auto write = [&](const char* name, const char* text) {
      std::ofstream out(directory_ / name);
      out << text;
    };
    write("cycle.tra", "STATES 3\nTRANSITIONS 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n");
    write("cycle.lab", "#DECLARATION\na b\n#END\n1 a\n2 a\n3 b\n");
    write("cycle.rewr", "1 1.0\n2 2.0\n3 1.0\n");
    const std::string base = (directory_ / "cycle").string();
    return "'" + base + ".tra' '" + base + ".lab' '" + base + ".rewr'";
  }

  std::filesystem::path directory_;
  std::string model_args_;
};

TEST_F(MrmcheckCli, ChecksAFormulaAndExitsZero) {
  EXPECT_EQ(run(model_args_ + " NP 'P(>0.1)[Sup U[0,50][0,3000] failed]'"), 0);
}

TEST_F(MrmcheckCli, HugeHorizonsExitWithAnErrorNotAVerdict) {
  // Lambda*t = 1e30 lies past the Poisson window limit of 2^53. These used to
  // exit 0 under --strict with every state UNSAT.
  const std::string spec = "'" + std::string(CSRLMRM_EXAMPLE_MODELS_DIR) + "/tmr.spec'";
  for (const char* formula : {"P(>0.5)[Sup U[0,1e30] failed]", "R(>1e25)[C[0,1e30]]",
                              "P(>0.5)[Sup U[1e30,2e30] failed]"}) {
    EXPECT_EQ(run(spec + " --strict '" + formula + "'"), 1) << formula;
  }
}

TEST_F(MrmcheckCli, RejectsUnknownOption) {
  EXPECT_EQ(run(model_args_ + " --bogus 'TT'"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedUniformizationWindow) {
  EXPECT_EQ(run(model_args_ + " u=abc 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " u= 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " u=-1e-8 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " d=0 'TT'"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedThreadCount) {
  EXPECT_EQ(run(model_args_ + " --threads 0 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --threads=x 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --threads 'TT'"), 2);  // value swallowed the formula
}

TEST_F(MrmcheckCli, RejectsSecondFormulaArgument) {
  EXPECT_EQ(run(model_args_ + " 'TT' 'FF'"), 2);
}

TEST_F(MrmcheckCli, RejectsMissingFormula) {
  EXPECT_EQ(run(model_args_ + " NP"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedFallbackPolicyAndNodeBudget) {
  EXPECT_EQ(run(model_args_ + " --fallback=bogus 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=0 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=abc 'TT'"), 2);
}

TEST_F(MrmcheckCli, RejectsEngineSelectorAndWidenWAsUsageErrors) {
  // There is one uniformization engine and no widening fallback: naming an
  // engine selector or widen-w is a usage error.
  EXPECT_EQ(run(model_args_ + " --until-engine=dfpg 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --until-engine=auto 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --fallback=widen-w 'TT'"), 2);
}

TEST_F(MrmcheckCli, StrictExitsThreeWhenTheIntervalStraddlesTheThreshold) {
  const std::string cycle = write_cycle_model();
  const std::string query = " NP 'P(>=0.26)[a U[0,1][0,10] b]'";
  // Coarse discretization: the O(d) band around ~0.2584 contains 0.26.
  EXPECT_EQ(run(cycle + " d=0.125 --strict" + query), 3);
  // Same verdict from the other engine: coarse truncation widens the
  // one-sided uniformization interval across the threshold. UNKNOWN must never
  // degenerate into an engine-dependent SAT/UNSAT flip.
  EXPECT_EQ(run(cycle + " u=0.2 --strict" + query), 3);
  // Without --strict the run warns but succeeds.
  EXPECT_EQ(run(cycle + " d=0.125" + query), 0);
  // A tight engine decides the formula and --strict passes.
  EXPECT_EQ(run(cycle + " u=1e-10 --strict" + query), 0);
}

TEST_F(MrmcheckCli, NodeBudgetExhaustionFallsBackInsteadOfFailing) {
  const std::string cycle = write_cycle_model();
  const std::string stats_file = (directory_ / "fallback_stats.json").string();
  // Budget of 5 nodes cannot explore the cycle. With an integer impulse on
  // 1 -> 2 the chooser keeps uniformization (impulse rewards may admit no
  // discretization step, so it never switches up front); the engine then
  // exhausts its budget mid-flight and the checker must fall back to
  // discretization for the query's starts, still exit 0, and record the
  // degradation in the stats JSON.
  const std::string impulse_cycle =
      cycle + " " + write_file("cycle.rewi", "TRANSITIONS 1\n1 2 1\n");
  ASSERT_EQ(run(impulse_cycle + " u=1e-12 --max-nodes=5 --stats='" + stats_file +
                "' NP 'P(>=0.5)[a U[0,1][0,10] b]'"),
            0);
  std::ifstream in(stats_file);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue stats = obs::parse_json(buffer.str());
  const obs::JsonValue* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* fallbacks = counters->find("uniformization.fallbacks");
  ASSERT_NE(fallbacks, nullptr);
  EXPECT_GE(fallbacks->as_number(), 1.0);
  // Without impulses the chooser sees the starved budget before exploring
  // anything, goes straight to discretization, and records that choice.
  const std::string auto_stats_file = (directory_ / "auto_stats.json").string();
  ASSERT_EQ(run(cycle + " u=1e-12 --max-nodes=5 --stats='" + auto_stats_file +
                "' NP 'P(>=0.5)[a U[0,1][0,10] b]'"),
            0);
  std::ifstream auto_in(auto_stats_file);
  ASSERT_TRUE(auto_in.is_open());
  std::ostringstream auto_buffer;
  auto_buffer << auto_in.rdbuf();
  const obs::JsonValue auto_stats = obs::parse_json(auto_buffer.str());
  const obs::JsonValue* auto_counters = auto_stats.find("counters");
  ASSERT_NE(auto_counters, nullptr);
  const obs::JsonValue* chose = auto_counters->find("engine.auto_choice.discretization");
  ASSERT_NE(chose, nullptr);
  EXPECT_GE(chose->as_number(), 1.0);
  // With the throw policy the same starved run fails loudly instead — the
  // checker never degrades behind a kThrow user's back.
  EXPECT_EQ(run(cycle + " u=1e-12 --max-nodes=5 --fallback=throw NP "
                        "'P(>=0.5)[a U[0,1][0,10] b]'"),
            1);
}

TEST_F(MrmcheckCli, FormulasBatchIsolatesPerFormulaFailures) {
  // A malformed formula in a --formulas batch fails alone: the remaining
  // formulas still run and the process exits 4 (batch completed with
  // per-formula failures) — not 1, and not 0.
  const auto write_batch = [&](const char* name, const char* text) {
    std::ofstream out(directory_ / name);
    out << text;
    return "'" + (directory_ / name).string() + "'";
  };
  const std::string mixed = write_batch("mixed.csrl",
                                        "P(>0.1)[Sup U[0,50][0,3000] failed]\n"
                                        "THIS IS (not a formula\n"
                                        "S(<0.9) allUp\n");
  EXPECT_EQ(run(model_args_ + " NP --formulas=" + mixed), 4);
  // --strict does not mask the failure exit: per-formula failures dominate
  // the UNKNOWN exit code.
  EXPECT_EQ(run(model_args_ + " NP --strict --formulas=" + mixed), 4);
  // A fully well-formed batch exits 0.
  const std::string clean = write_batch("clean.csrl",
                                        "P(>0.1)[Sup U[0,50][0,3000] failed]\n"
                                        "\n"
                                        "# comments and blanks are skipped\n"
                                        "S(<0.9) allUp\n");
  EXPECT_EQ(run(model_args_ + " NP --formulas=" + clean), 0);
  // --explain on a mixed batch also reports the failures via exit 4 while
  // still printing the plan of the good formulas.
  EXPECT_EQ(run(model_args_ + " NP --explain --formulas=" + mixed), 4);
}

// Failures that surface only when the plan runs fail alone too: formula 2's
// bound shape is outside thesis sections 4.5/4.6, and formula 4's point time
// interval breaks Theorem 4.2's Psi => Phi. Formulas 1 and 3 are answered
// from the same execution.
TEST_F(MrmcheckCli, FormulasBatchIsolatesSolveTimeFailures) {
  const std::string spec = "'" + std::string(CSRLMRM_EXAMPLE_MODELS_DIR) + "/tmr.spec'";
  const std::string batch = write_file("solve.csrl",
                                       "P(>0.1)[Sup U[0,50][0,3000] failed]\n"
                                       "P(>0.1)[Sup U[1,2][0,5] failed]\n"
                                       "S(<0.9) allUp\n"
                                       "P(>0.5)[Sup U[2,2][0,5] failed]\n");
  std::string output;
  EXPECT_EQ(run_capturing(spec + " NP --formulas=" + batch, output), 4);
  std::size_t answered = 0;
  for (std::size_t at = output.find("satisfying states"); at != std::string::npos;
       at = output.find("satisfying states", at + 1)) {
    ++answered;
  }
  EXPECT_EQ(answered, 2u);
  const std::size_t second = output.find("[2/4]");
  const std::size_t third = output.find("[3/4]");
  const std::size_t fourth = output.find("[4/4]");
  ASSERT_NE(fourth, std::string::npos);
  EXPECT_NE(output.find("  error: until: time bounds must have the form", second),
            std::string::npos);
  EXPECT_LT(output.find("  error: ", second), third);
  EXPECT_NE(output.find("  error: until with point time interval [t,t] requires Psi => Phi",
                        fourth),
            std::string::npos);
  // Each error is the one the formula exits with alone.
  for (const char* formula :
       {"P(>0.1)[Sup U[1,2][0,5] failed]", "P(>0.5)[Sup U[2,2][0,5] failed]"}) {
    EXPECT_EQ(run(spec + " NP '" + formula + "'"), 1) << formula;
  }
}

// A formula nested past the parser's depth cap is one more malformed batch
// line: reported in its slot while the formulas around it are answered.
TEST_F(MrmcheckCli, FormulasBatchReportsOverDeepFormulaAsPerFormulaError) {
  const std::string batch = write_file("deep.csrl", "S(<0.9) allUp\n" +
                                                        std::string(100000, '!') + "TT\n" +
                                                        "P(>0.1)[Sup U[0,50][0,3000] failed]\n");
  std::string output;
  EXPECT_EQ(run_capturing(model_args_ + " NP --formulas=" + batch, output), 4);
  EXPECT_NE(output.find("nests deeper than"), std::string::npos);
  std::size_t answered = 0;
  for (std::size_t at = output.find("satisfying states"); at != std::string::npos;
       at = output.find("satisfying states", at + 1)) {
    ++answered;
  }
  EXPECT_EQ(answered, 2u);
}

// Printing the probabilities and then the verdicts of one P formula asks the
// checker about the same node twice; both answers come from one plan
// execution, so the until solve runs exactly as often as in a --formulas run.
TEST_F(MrmcheckCli, SingleFormulaRunsOneUntilSolve) {
  const std::string query = "P(>0.1)[Sup U[0,50][0,3000] failed]";
  const std::string single_stats = (directory_ / "single.json").string();
  ASSERT_EQ(run(model_args_ + " --stats='" + single_stats + "' '" + query + "'"), 0);
  const std::string batch_stats = (directory_ / "batch.json").string();
  const std::string batch = write_file("one.csrl", query + "\n");
  ASSERT_EQ(run(model_args_ + " --stats='" + batch_stats + "' --formulas=" + batch), 0);

  EXPECT_EQ(stats_counter(single_stats, "plan.execute.calls"), 1.0);
  for (const char* name : {"checker.until.calls", "classdp.calls",
                           "engine.auto_choice.classdp"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(stats_counter(single_stats, name), 1.0);
    EXPECT_EQ(stats_counter(single_stats, name), stats_counter(batch_stats, name));
  }
}

TEST_F(MrmcheckCli, StatsToUnwritablePathFailsBeforeChecking) {
  EXPECT_EQ(run(model_args_ + " --stats=/nonexistent-dir/stats.json 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --stats= 'TT'"), 2);
}

TEST_F(MrmcheckCli, StatsFileIsSchemaValidJson) {
  const std::string stats_file = (directory_ / "stats.json").string();
  ASSERT_EQ(run(model_args_ + " --stats='" + stats_file +
                "' NP 'P(>0.1)[Sup U[0,50][0,3000] failed]'"),
            0);
  std::ifstream in(stats_file);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue stats = obs::parse_json(buffer.str());
  const obs::JsonValue* schema = stats.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "csrlmrm-stats-v1");
  const obs::JsonValue* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  // The default until engine is the signature-class DP (classdp).
  EXPECT_NE(counters->find("classdp.calls"), nullptr);
  const obs::JsonValue* gauges = stats.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("classdp.workspace_bytes"), nullptr);
  const obs::JsonValue* trace = stats.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_NE(trace->find("children"), nullptr);
}

#endif  // MRMCHECK_BINARY && !_WIN32

}  // namespace
}  // namespace csrlmrm::io
