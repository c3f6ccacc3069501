// Tests for csrlmrm-lint: lexer behavior, rule-by-rule fixture corpus,
// suppression comments, JSON round-trips, and CLI exit codes.
//
// Fixture protocol: every line in tests/lint_fixtures/*_bad.* expected to
// fire carries an `EXPECT-LINT` marker comment; the tests assert the
// diagnosed line set equals the marked line set, that every diagnostic names
// the fixture's rule, and that each fixture's lint:allow instance was
// counted as suppressed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "context.hpp"
#include "driver.hpp"
#include "lexer.hpp"
#include "obs/json.hpp"

namespace csrlmrm::lint {
namespace {

std::string fixture_path(const std::string& relative) {
  return std::string(CSRLMRM_LINT_FIXTURES_DIR) + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "unreadable fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// 1-based numbers of lines carrying an EXPECT-LINT marker.
std::set<std::size_t> marked_lines(const std::string& source) {
  std::set<std::size_t> lines;
  std::istringstream in(source);
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.find("EXPECT-LINT") != std::string::npos) lines.insert(number);
  }
  return lines;
}

/// Lints one fixture and checks the marker protocol for `rule`.
void check_fixture(const std::string& relative, const std::string& rule,
                   std::size_t min_suppressed) {
  SCOPED_TRACE(relative);
  const std::string path = fixture_path(relative);
  const LintReport report = lint_paths({path});
  ASSERT_TRUE(report.errors.empty());
  EXPECT_EQ(report.files_scanned, 1u);

  const std::set<std::size_t> expected = marked_lines(read_file(path));
  ASSERT_FALSE(expected.empty()) << "fixture has no EXPECT-LINT markers";

  std::set<std::size_t> actual;
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.rule, rule) << "unexpected rule at " << d.file << ":" << d.line;
    EXPECT_EQ(d.file, path);
    actual.insert(d.line);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_GE(report.suppressed, min_suppressed)
      << "fixture must prove the suppression comment works";
}

// ---------------------------------------------------------------------------
// Fixture corpus: one firing + one suppression proof per rule.

TEST(LintFixtures, FloatEquality) {
  check_fixture("float_equality_bad.cpp", "float-equality", 3);
}

TEST(LintFixtures, UnorderedIteration) {
  check_fixture("src/checker/unordered_iteration_bad.cpp", "unordered-iteration", 2);
}

TEST(LintFixtures, UnsafeLibm) { check_fixture("unsafe_libm_bad.cpp", "unsafe-libm", 1); }

TEST(LintFixtures, FloatNarrowing) {
  check_fixture("float_narrowing_bad.cpp", "float-narrowing", 1);
}

TEST(LintFixtures, NakedNew) { check_fixture("naked_new_bad.cpp", "naked-new", 1); }

TEST(LintFixtures, SolverStats) {
  check_fixture("src/linalg/solver_stats_bad.cpp", "solver-stats", 1);
}

TEST(LintFixtures, Endl) { check_fixture("endl_bad.cpp", "endl", 1); }

TEST(LintFixtures, BannedIdentifier) {
  check_fixture("banned_identifier_bad.cpp", "banned-identifier", 1);
}

TEST(LintFixtures, ReservedIdentifier) {
  check_fixture("reserved_identifier_bad.cpp", "reserved-identifier", 1);
}

TEST(LintFixtures, SimdHygiene) {
  check_fixture("simd_hygiene_bad.cpp", "simd-hygiene", 1);
}

TEST(LintFixtures, DanglingCacheReference) {
  check_fixture("src/core/dangling_cache_bad.cpp", "dangling-cache-reference", 1);
}

TEST(LintFixtures, LockHygiene) {
  check_fixture("src/daemon/lock_hygiene_bad.cpp", "lock-hygiene", 1);
}

TEST(LintFixtures, SyscallHygiene) {
  check_fixture("src/daemon/syscall_hygiene_bad.cpp", "syscall-hygiene", 1);
}

TEST(LintRules, SimdHygieneExemptsTheDoubleVecHeader) {
  // The one sanctioned home of raw vector machinery: the rule must stay
  // silent on src/core/simd.hpp and fire on the same spelling anywhere else.
  constexpr const char* snippet =
      "#pragma once\n"
      "typedef double Native [[gnu::vector_size(32)]];\n";
  LintOptions only_simd;
  only_simd.rule_filter = {"simd-hygiene"};
  EXPECT_TRUE(lint_source("src/core/simd.hpp", snippet, only_simd).diagnostics.empty());
  ASSERT_EQ(lint_source("src/numeric/omega.cpp", snippet, only_simd).diagnostics.size(), 1u);
  ASSERT_EQ(lint_source("bench/bench_kernels.cpp", snippet, only_simd).diagnostics.size(), 1u);
}

TEST(LintFixtures, PragmaOnceFires) {
  const LintReport report = lint_paths({fixture_path("missing_pragma_bad.hpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "pragma-once");
  EXPECT_EQ(report.diagnostics[0].line, 1u);
}

TEST(LintFixtures, PragmaOnceFileWideSuppression) {
  const LintReport report = lint_paths({fixture_path("pragma_suppressed.hpp")});
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintFixtures, CleanCorpusIsClean) {
  const LintReport report =
      lint_paths({fixture_path("clean.cpp"), fixture_path("clean.hpp")});
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_TRUE(report.diagnostics.empty())
      << format_text(report);
  EXPECT_EQ(report.suppressed, 0u);
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(LintLexer, FloatLiteralClassification) {
  const LexedFile f = lex("x.cpp", "1.0 1e-3 3.f 42 0x2a 0x1p3 1'000 2.5e+7");
  ASSERT_EQ(f.tokens.size(), 8u);
  const bool expected_float[] = {true, true, true, false, false, true, false, true};
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    EXPECT_EQ(f.tokens[i].kind, TokenKind::kNumber) << i;
    EXPECT_EQ(f.tokens[i].is_float_literal, expected_float[i]) << f.text(f.tokens[i]);
  }
}

TEST(LintLexer, CommentsAreNotTokens) {
  const LexedFile f = lex("x.cpp", "int a; // rand() == 0.0\n/* new delete */ int b;");
  for (const Token& t : f.tokens) {
    EXPECT_NE(f.text(t), "rand");
    EXPECT_NE(f.text(t), "new");
  }
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_FALSE(f.comments[0].owns_line);  // trails `int a;`
  EXPECT_TRUE(f.comments[1].block);
}

TEST(LintLexer, StringsSwallowBannedContent) {
  const LexedFile f = lex("x.cpp", "const char* s = \"rand() std::endl\";\n"
                                   "const char* r = R\"(x == 0.0\nmore)\";\n"
                                   "int after = 1;");
  std::size_t strings = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kString) ++strings;
    EXPECT_NE(f.text(t), "rand");
    EXPECT_NE(f.text(t), "endl");
  }
  EXPECT_EQ(strings, 2u);
  // The raw string body spans source lines 2-3; `after` must land on line 4.
  const auto after = std::find_if(f.tokens.begin(), f.tokens.end(),
                                  [&](const Token& t) { return f.text(t) == "after"; });
  ASSERT_NE(after, f.tokens.end());
  EXPECT_EQ(after->line, 4u);
}

TEST(LintLexer, PreprocessorLinesAreSingleTokens) {
  const LexedFile f = lex("x.cpp", "#define TWICE(x) \\\n  ((x) + (x))\nint y;");
  ASSERT_GE(f.tokens.size(), 4u);
  EXPECT_EQ(f.tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_EQ(f.tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(f.text(f.tokens[1]), "int");
  EXPECT_EQ(f.tokens[1].line, 3u);
}

// ---------------------------------------------------------------------------
// Rule scoping and filtering via in-memory sources.

constexpr const char* kUnorderedSnippet =
    "#include <unordered_map>\n"
    "double fold(const std::unordered_map<int, double>& m) {\n"
    "  double acc = 0.0;\n"
    "  for (const auto& [k, v] : m) acc += v;\n"
    "  return acc;\n"
    "}\n";

TEST(LintRules, UnorderedIterationFiresOnlyInHotSubsystems) {
  EXPECT_EQ(lint_source("src/checker/a.cpp", kUnorderedSnippet).diagnostics.size(), 1u);
  EXPECT_EQ(lint_source("src/numeric/a.cpp", kUnorderedSnippet).diagnostics.size(), 1u);
  EXPECT_TRUE(lint_source("tests/a.cpp", kUnorderedSnippet).diagnostics.empty());
  EXPECT_TRUE(lint_source("src/models/a.cpp", kUnorderedSnippet).diagnostics.empty());
}

TEST(LintRules, SolverStatsAppliesToSrcOnly) {
  constexpr const char* snippet =
      "int jacobi_solve(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) acc += i;\n"
      "  return acc;\n"
      "}\n";
  const LintReport in_src = lint_source("src/linalg/a.cpp", snippet);
  ASSERT_EQ(in_src.diagnostics.size(), 1u);
  EXPECT_EQ(in_src.diagnostics[0].rule, "solver-stats");
  EXPECT_TRUE(lint_source("bench/a.cpp", snippet).diagnostics.empty());
}

// tests/oracle/ (DFPG, Jacobi, the simulator) is held to the hot-subsystem
// rules, while the rest of tests/ stays exempt.
TEST(LintRules, OracleLibraryKeepsTheHotSubsystemRules) {
  const LintReport unordered = lint_source("tests/oracle/a.cpp", kUnorderedSnippet);
  ASSERT_EQ(unordered.diagnostics.size(), 1u);
  EXPECT_EQ(unordered.diagnostics[0].rule, "unordered-iteration");
  EXPECT_EQ(lint_source("/repo/tests/oracle/a.cpp", kUnorderedSnippet).diagnostics.size(), 1u);
  EXPECT_TRUE(lint_source("tests/a.cpp", kUnorderedSnippet).diagnostics.empty());

  constexpr const char* snippet =
      "int jacobi_solve(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) acc += i;\n"
      "  return acc;\n"
      "}\n";
  const LintReport solver = lint_source("tests/oracle/a.cpp", snippet);
  ASSERT_EQ(solver.diagnostics.size(), 1u);
  EXPECT_EQ(solver.diagnostics[0].rule, "solver-stats");
  EXPECT_TRUE(lint_source("tests/a.cpp", snippet).diagnostics.empty());
}

#if defined(CSRLMRM_SOURCE_DIR)
// The real oracle library is clean under those rules, and DFPG's sorted drain
// of its signature hash map is the one unordered-iteration match it silences.
TEST(LintRules, OracleLibraryIsCleanWithItsOneSuppression) {
  const std::string oracle_dir = std::string(CSRLMRM_SOURCE_DIR) + "/tests/oracle";
  LintOptions only_unordered;
  only_unordered.rule_filter = {"unordered-iteration"};
  const LintReport report = lint_paths({oracle_dir}, only_unordered);
  EXPECT_TRUE(report.clean()) << format_text(report);
  EXPECT_GE(report.files_scanned, 6u);
  EXPECT_GE(report.suppressed, 1u);
}
#endif  // CSRLMRM_SOURCE_DIR

TEST(LintRules, ApprovedHelperPrefixesAreExempt) {
  EXPECT_TRUE(
      lint_source("src/core/a.hpp",
                  "#pragma once\n"
                  "inline bool approx_same(double a, double b) { return a == 0.0 && b == 0.0; }\n")
          .diagnostics.empty());
  EXPECT_EQ(
      lint_source("src/core/a.hpp",
                  "#pragma once\n"
                  "inline bool roughly_same(double a, double b) { return a == 0.0 && b == 0.0; }\n")
          .diagnostics.size(),
      2u);
}

TEST(LintRules, RuleFilterRestrictsExecution) {
  constexpr const char* snippet =
      "#include <iostream>\n"
      "bool f(double x) { std::cout << std::endl; return x == 0.0; }\n";
  LintOptions only_endl;
  only_endl.rule_filter = {"endl"};
  const LintReport report = lint_source("tests/a.cpp", snippet, only_endl);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "endl");
}

TEST(LintRules, CatalogueIsStable) {
  const auto rules = make_default_rules();
  ASSERT_EQ(rules.size(), 14u);
  const std::set<std::string> names = [&] {
    std::set<std::string> out;
    for (const auto& r : rules) out.insert(std::string(r->name()));
    return out;
  }();
  const std::set<std::string> expected = {
      "float-equality", "unordered-iteration", "unsafe-libm",       "float-narrowing",
      "naked-new",      "solver-stats",        "endl",              "banned-identifier",
      "pragma-once",    "reserved-identifier", "simd-hygiene",
      "dangling-cache-reference", "lock-hygiene", "syscall-hygiene"};
  EXPECT_EQ(names, expected);
  for (const auto& r : rules) EXPECT_FALSE(r->description().empty());
}

// ---------------------------------------------------------------------------
// Suppressions.

TEST(LintSuppression, ListedRuleOnlySuppressesItself) {
  // The allowance names `endl`, so float-equality on the same line survives.
  const LintReport report = lint_source(
      "tests/a.cpp",
      "#include <iostream>\n"
      "bool f(double x) { std::cout << std::endl; return x == 0.0; }  // lint:allow(endl)\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "float-equality");
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintSuppression, CommaListAndAllKeyword) {
  EXPECT_TRUE(lint_source("tests/a.cpp",
                          "#include <iostream>\n"
                          "bool f(double x) { std::cout << std::endl; return x == 0.0; }"
                          "  // lint:allow(endl, float-equality)\n")
                  .diagnostics.empty());
  EXPECT_TRUE(lint_source("tests/a.cpp",
                          "#include <iostream>\n"
                          "bool f(double x) { std::cout << std::endl; return x == 0.0; }"
                          "  // lint:allow(all)\n")
                  .diagnostics.empty());
}

TEST(LintSuppression, StandaloneCommentTargetsNextCodeLine) {
  const LintReport report = lint_source("tests/a.cpp",
                                        "// lint:allow(float-equality)\n"
                                        "// spanning a second justification line\n"
                                        "bool f(double x) { return x == 0.0; }\n");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintSuppression, FileWideAllowance) {
  const LintReport report = lint_source("tests/a.cpp",
                                        "// lint:allow-file(float-equality)\n"
                                        "bool f(double x) { return x == 0.0; }\n"
                                        "bool g(double x) { return x == 1.0; }\n");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.suppressed, 2u);
}

TEST(LintSuppression, SuppressionDoesNotLeakToOtherLines) {
  const LintReport report = lint_source("tests/a.cpp",
                                        "bool f(double x) { return x == 0.0; }  // lint:allow(float-equality)\n"
                                        "bool g(double x) { return x == 1.0; }\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 2u);
}

// ---------------------------------------------------------------------------
// JSON report.

TEST(LintJson, RoundTripPreservesDiagnostics) {
  const LintReport report = lint_source(
      "tests/a.cpp", "#include <iostream>\nvoid f() { std::cout << std::endl; }\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);

  const obs::JsonValue parsed = obs::parse_json(obs::write_json(report_to_json(report)));
  EXPECT_EQ(parsed.at("tool").as_string(), "csrlmrm-lint");
  EXPECT_EQ(parsed.at("files_scanned").as_number(), 1.0);
  EXPECT_FALSE(parsed.at("clean").as_bool());
  const auto& diags = parsed.at("diagnostics").items();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].at("rule").as_string(), "endl");
  EXPECT_EQ(diags[0].at("file").as_string(), "tests/a.cpp");
  EXPECT_EQ(diags[0].at("line").as_number(), 2.0);
  EXPECT_FALSE(diags[0].at("message").as_string().empty());
}

TEST(LintJson, CleanReportShape) {
  const obs::JsonValue parsed = obs::parse_json(
      obs::write_json(report_to_json(lint_source("tests/a.cpp", "int x = 1;\n"))));
  EXPECT_TRUE(parsed.at("clean").as_bool());
  EXPECT_TRUE(parsed.at("diagnostics").items().empty());
  EXPECT_TRUE(parsed.at("errors").items().empty());
}

TEST(LintDriver, MissingPathIsReported) {
  const LintReport report = lint_paths({fixture_path("does_not_exist.cpp")});
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_FALSE(report.clean());
}

// ---------------------------------------------------------------------------
// CLI exit codes (0 clean / 1 diagnostics / 2 usage), mirroring the mrmcheck
// CLI tests' spawn idiom.

#if defined(CSRLMRM_LINT_BINARY) && !defined(_WIN32)

int run_lint_cli(const std::string& arguments) {
  const std::string command = std::string("'") + CSRLMRM_LINT_BINARY + "' " + arguments +
                              " >/dev/null 2>/dev/null";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// `path` single-quoted for the shell. Appending, not `"'" + path`, which
/// GCC 12 at -O3 flags with a false-positive -Wrestrict.
std::string quoted(const std::string& path) { return std::string("'").append(path).append("'"); }

TEST(LintCli, CleanFileExitsZero) {
  EXPECT_EQ(run_lint_cli(quoted(fixture_path("clean.cpp"))), 0);
}

TEST(LintCli, DiagnosticsExitOne) {
  EXPECT_EQ(run_lint_cli(quoted(fixture_path("endl_bad.cpp"))), 1);
}

TEST(LintCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint_cli(""), 2);                          // no paths
  EXPECT_EQ(run_lint_cli("--rule=no-such-rule '" + fixture_path("clean.cpp") + "'"), 2);
  EXPECT_EQ(run_lint_cli("--no-such-flag '" + fixture_path("clean.cpp") + "'"), 2);
}

TEST(LintCli, JsonFileOutputParses) {
  const auto json_path =
      std::filesystem::temp_directory_path() / "csrlmrm_lint_cli_report.json";
  std::filesystem::remove(json_path);
  EXPECT_EQ(run_lint_cli("--json='" + json_path.string() + "' '" +
                         fixture_path("endl_bad.cpp") + "'"),
            1);
  const obs::JsonValue parsed = obs::parse_json(read_file(json_path.string()));
  EXPECT_FALSE(parsed.at("clean").as_bool());
  EXPECT_FALSE(parsed.at("diagnostics").items().empty());
  std::filesystem::remove(json_path);
}

TEST(LintCli, SarifFileOutputParses) {
  const auto sarif_path =
      std::filesystem::temp_directory_path() / "csrlmrm_lint_cli_report.sarif";
  std::filesystem::remove(sarif_path);
  EXPECT_EQ(run_lint_cli("--format=sarif --output='" + sarif_path.string() + "' '" +
                         fixture_path("endl_bad.cpp") + "'"),
            1);
  const obs::JsonValue parsed = obs::parse_json(read_file(sarif_path.string()));
  EXPECT_EQ(parsed.at("version").as_string(), "2.1.0");
  const auto& runs = parsed.at("runs").items();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("tool").at("driver").at("name").as_string(), "csrlmrm-lint");
  const auto& results = runs[0].at("results").items();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].at("ruleId").as_string(), "endl");
  std::filesystem::remove(sarif_path);
}

#if defined(CSRLMRM_SOURCE_DIR)
// The plan subsystem must stay inside the whole-tree scan's scope: lint_tree
// already walks src/ recursively, but this pins the directory explicitly so
// a future scan-list regression (e.g. an exclude pattern swallowing
// src/plan) fails a unit test, not just a code review.
TEST(LintCli, PlanSubsystemIsCleanAndInScope) {
  const std::string plan_dir = std::string(CSRLMRM_SOURCE_DIR) + "/src/plan";
  ASSERT_TRUE(std::filesystem::is_directory(plan_dir)) << plan_dir;
  EXPECT_EQ(run_lint_cli("'" + plan_dir + "'"), 0);
}

// Same pin for the daemon subsystem: src/daemon carries raw socket I/O and
// hand-rolled framing — exactly the code the linter's rules (no naked new,
// no float ==, no reserved identifiers) are meant to keep honest.
TEST(LintCli, DaemonSubsystemIsCleanAndInScope) {
  const std::string daemon_dir = std::string(CSRLMRM_SOURCE_DIR) + "/src/daemon";
  ASSERT_TRUE(std::filesystem::is_directory(daemon_dir)) << daemon_dir;
  EXPECT_EQ(run_lint_cli("'" + daemon_dir + "'"), 0);
}

// Same pin for the model generators: src/models gained the streamed
// generator families (generator.cpp and the grid/crowd/virus sources) —
// BFS exploration with bitmask state encodings and raw strtol/strtod spec
// parsing, exactly the integer/double mixing the linter should keep honest.
// The existence checks make the pin fail loudly if the files are ever moved
// out of the scanned tree instead of silently shrinking the scan.
TEST(LintCli, ModelGeneratorsAreCleanAndInScope) {
  const std::string models_dir = std::string(CSRLMRM_SOURCE_DIR) + "/src/models";
  ASSERT_TRUE(std::filesystem::is_directory(models_dir)) << models_dir;
  for (const char* file : {"generator.hpp", "generator.cpp", "grid_network.cpp",
                           "crowd_epidemic.cpp", "virus_spread.cpp"}) {
    ASSERT_TRUE(std::filesystem::exists(models_dir + "/" + file)) << file;
  }
  EXPECT_EQ(run_lint_cli("'" + models_dir + "'"), 0);
}
#endif  // CSRLMRM_SOURCE_DIR

#endif  // CSRLMRM_LINT_BINARY && !_WIN32

}  // namespace
}  // namespace csrlmrm::lint
