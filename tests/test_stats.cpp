// Observability-layer semantics: counter/gauge/timer recording, JSON
// round-trips, and — the property the whole design hangs on — that the
// registry totals are identical at every thread count. Suites are named
// Stats* so the tsan suite (tests/CMakeLists.txt) picks them up alongside
// Parallel*.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/approx.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm {
namespace {

/// Every test runs against the global registry (that is what the engines
/// write into), so isolate: enable recording, start from empty, and leave
/// the process-wide switch off afterwards.
class StatsTest : public ::testing::Test {
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

using StatsJson = ::testing::Test;

TEST_F(StatsJson, RoundTripPreservesStructure) {
  obs::JsonValue object = obs::JsonValue::object();
  object.set("name", obs::JsonValue(std::string("fox_glynn")));
  object.set("calls", obs::JsonValue(42.0));
  object.set("ratio", obs::JsonValue(0.125));
  object.set("flag", obs::JsonValue(true));
  object.set("nothing", obs::JsonValue());
  obs::JsonValue array = obs::JsonValue::array();
  array.push_back(obs::JsonValue(1.0));
  array.push_back(obs::JsonValue(std::string("two")));
  object.set("items", std::move(array));

  const std::string text = obs::write_json(object);
  const obs::JsonValue parsed = obs::parse_json(text);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.at("name").as_string(), "fox_glynn");
  EXPECT_DOUBLE_EQ(parsed.at("calls").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").as_number(), 0.125);
  EXPECT_TRUE(parsed.at("flag").as_bool());
  EXPECT_TRUE(parsed.at("nothing").is_null());
  ASSERT_EQ(parsed.at("items").items().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("items").items()[0].as_number(), 1.0);
  EXPECT_EQ(parsed.at("items").items()[1].as_string(), "two");
}

TEST_F(StatsJson, IntegersPrintWithoutFraction) {
  obs::JsonValue v(1234567.0);
  EXPECT_EQ(obs::write_json(v), "1234567\n");
}

TEST_F(StatsJson, IntegralValuesPrintInFixedNotation) {
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(1e15)), "1000000000000000");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(9007199254740991.0)), "9007199254740991");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(-42.0)), "-42");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(0.0)), "0");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(-0.0)), "-0");
}

TEST_F(StatsJson, NumbersPrintInTheirShortestRoundTripForm) {
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(0.1)), "0.1");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(0.125)), "0.125");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(-2.5e-9)), "-2.5e-09");
  EXPECT_EQ(obs::write_json_compact(obs::JsonValue(1e300)), "1e+300");
}

TEST_F(StatsJson, DoublesRoundTripBitwise) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::min(),
                                9007199254740991.0,
                                9007199254740992.0,
                                -9007199254740991.0,
                                1e308,
                                -1e308,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                0.1,
                                1.0 / 3.0};
  // Random bit patterns cover every exponent; uniform draws cover the
  // probabilities and rewards the daemon actually ships.
  std::mt19937_64 rng(20050628);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (values.size() < 10000) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
    values.push_back(unit(rng));
  }
  obs::JsonValue array = obs::JsonValue::array();
  for (const double value : values) array.push_back(obs::JsonValue(value));
  const obs::JsonValue back = obs::parse_json(obs::write_json_compact(array));
  ASSERT_EQ(back.items().size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double parsed = back.items()[i].as_number();
    EXPECT_EQ(std::memcmp(&parsed, &values[i], sizeof(double)), 0)
        << "value " << i << ": " << values[i] << " came back as " << parsed;
  }
}

TEST_F(StatsJson, EscapesAndUnescapesSpecialCharacters) {
  const std::string original = "line\nbreak \"quoted\" back\\slash \t end";
  obs::JsonValue v(original);
  const obs::JsonValue parsed = obs::parse_json(obs::write_json(v));
  EXPECT_EQ(parsed.as_string(), original);
}

TEST_F(StatsJson, ParsesUnicodeEscapes) {
  const obs::JsonValue parsed = obs::parse_json("\"\\u0041\\u00e9\"");
  EXPECT_EQ(parsed.as_string(), "A\xc3\xa9");
}

TEST_F(StatsJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::parse_json("{\"a\": }"), obs::JsonParseError);
  EXPECT_THROW(obs::parse_json("[1, 2"), obs::JsonParseError);
  EXPECT_THROW(obs::parse_json("12 34"), obs::JsonParseError);
  EXPECT_THROW(obs::parse_json("nul"), obs::JsonParseError);
  EXPECT_THROW(obs::parse_json(""), obs::JsonParseError);
  try {
    obs::parse_json("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& error) {
    EXPECT_GT(error.offset(), 0u);
  }
}

/// Expects parse_json(text) to fail with the depth-cap error at `offset`.
void expect_depth_error_at(const std::string& text, std::size_t offset) {
  try {
    obs::parse_json(text);
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& error) {
    EXPECT_EQ(error.offset(), offset);
    EXPECT_NE(std::string(error.what()).find("nesting deeper than"), std::string::npos)
        << error.what();
  }
}

TEST_F(StatsJson, DeepArrayNestingIsAParseErrorNotAStackOverflow) {
  // One 200 000-byte line of '[' (a hostile mrmcheckd request): the parser
  // stops at the first bracket past the cap instead of recursing 200k deep.
  expect_depth_error_at(std::string(200000, '['), obs::kMaxJsonDepth);
}

TEST_F(StatsJson, DeepObjectNestingIsAParseErrorNotAStackOverflow) {
  std::string text;
  for (int i = 0; i < 100000; ++i) text += "{\"a\":";
  // Level k's '{' sits at byte 5 * (k - 1).
  expect_depth_error_at(text, 5 * obs::kMaxJsonDepth);
}

TEST_F(StatsJson, NestingAtTheDepthCapParses) {
  const std::string text =
      std::string(obs::kMaxJsonDepth, '[') + std::string(obs::kMaxJsonDepth, ']');
  const obs::JsonValue parsed = obs::parse_json(text);
  const obs::JsonValue* level = &parsed;
  std::size_t depth = 1;
  while (!level->items().empty()) {
    level = &level->items().front();
    ++depth;
  }
  EXPECT_EQ(depth, obs::kMaxJsonDepth);
  expect_depth_error_at("[" + text + "]", obs::kMaxJsonDepth);
}

TEST_F(StatsJson, NonFiniteNumbersSerializeAsNull) {
  obs::JsonValue array = obs::JsonValue::array();
  array.push_back(obs::JsonValue(std::nan("")));
  EXPECT_EQ(obs::write_json(array), "[\n  null\n]\n");
}

TEST_F(StatsTest, CountersAccumulateBySum) {
  obs::counter_add("test.counter");
  obs::counter_add("test.counter", 9);
  EXPECT_EQ(obs::StatsRegistry::global().counter("test.counter"), 10u);
  EXPECT_EQ(obs::StatsRegistry::global().counter("test.absent"), 0u);
}

TEST_F(StatsTest, GaugesMergeByMax) {
  obs::gauge_max("test.gauge", 3.0);
  obs::gauge_max("test.gauge", 7.0);
  obs::gauge_max("test.gauge", 5.0);
  EXPECT_DOUBLE_EQ(obs::StatsRegistry::global().gauge("test.gauge"), 7.0);
  EXPECT_TRUE(std::isnan(obs::StatsRegistry::global().gauge("test.absent")));
}

TEST_F(StatsTest, DisabledRecordingIsDropped) {
  obs::set_stats_enabled(false);
  obs::counter_add("test.counter", 5);
  obs::gauge_max("test.gauge", 1.0);
  {
    obs::ScopedTimer timer("test.timer");
  }
  obs::set_stats_enabled(true);
  EXPECT_EQ(obs::StatsRegistry::global().counter("test.counter"), 0u);
  EXPECT_TRUE(obs::StatsRegistry::global().counters().empty());
  EXPECT_TRUE(obs::StatsRegistry::global().trace().children.empty());
}

TEST_F(StatsTest, ScopedTimersFormATree) {
  {
    obs::ScopedTimer outer("test.outer");
    {
      obs::ScopedTimer inner("test.inner");
    }
    {
      obs::ScopedTimer inner("test.inner");
    }
  }
  {
    obs::ScopedTimer outer("test.outer");
  }
  const obs::TraceNode trace = obs::StatsRegistry::global().trace();
  const obs::TraceNode* outer = trace.find("test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 2u);
  const obs::TraceNode* inner = outer->find("test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 2u);
  // Nested time is contained in the parent's.
  EXPECT_LE(inner->total_ns, outer->total_ns);
  EXPECT_EQ(trace.find("test.inner"), nullptr);  // only nested, never at root
}

TEST_F(StatsTest, ResetDropsEverything) {
  obs::counter_add("test.counter");
  obs::gauge_max("test.gauge", 1.0);
  {
    obs::ScopedTimer timer("test.timer");
  }
  obs::StatsRegistry::global().reset();
  EXPECT_TRUE(obs::StatsRegistry::global().counters().empty());
  EXPECT_TRUE(obs::StatsRegistry::global().gauges().empty());
  EXPECT_TRUE(obs::StatsRegistry::global().trace().children.empty());
}

TEST_F(StatsTest, LocalRegistryMergesTraces) {
  obs::StatsRegistry registry;
  obs::TraceNode first{"root", 0, 0, {{"a", 2, 100, {{"b", 1, 40, {}}}}}};
  obs::TraceNode second{"root", 0, 0, {{"a", 3, 50, {}}, {"c", 1, 10, {}}}};
  registry.merge_trace(first);
  registry.merge_trace(second);
  const obs::TraceNode trace = registry.trace();
  ASSERT_EQ(trace.children.size(), 2u);
  const obs::TraceNode* a = trace.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->calls, 5u);
  EXPECT_EQ(a->total_ns, 150u);
  ASSERT_NE(a->find("b"), nullptr);
  EXPECT_EQ(a->find("b")->calls, 1u);
  ASSERT_NE(trace.find("c"), nullptr);
}

TEST_F(StatsTest, ToJsonMatchesSchema) {
  obs::counter_add("test.counter", 3);
  obs::gauge_max("test.gauge", 2.5);
  {
    obs::ScopedTimer timer("test.op");
  }
  const obs::JsonValue document = obs::parse_json(obs::StatsRegistry::global().to_json());
  ASSERT_TRUE(document.is_object());
  EXPECT_EQ(document.at("schema").as_string(), "csrlmrm-stats-v1");
  EXPECT_DOUBLE_EQ(document.at("counters").at("test.counter").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(document.at("gauges").at("test.gauge").as_number(), 2.5);
  const obs::JsonValue& trace = document.at("trace");
  EXPECT_EQ(trace.at("name").as_string(), "root");
  ASSERT_EQ(trace.at("children").items().size(), 1u);
  const obs::JsonValue& op = trace.at("children").items()[0];
  EXPECT_EQ(op.at("name").as_string(), "test.op");
  EXPECT_DOUBLE_EQ(op.at("calls").as_number(), 1.0);
  EXPECT_GE(op.at("total_ns").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(op.at("total_ms").as_number(), op.at("total_ns").as_number() / 1e6);
}

TEST_F(StatsTest, SnapshotDeltaIsolatesARequestsWork) {
  // The mrmcheckd pattern: snapshot before a request, delta after. The delta
  // must carry only the work recorded in between — no contamination from
  // counters that predate the request (a long-lived process accumulates
  // process-lifetime totals that must never leak into a reply).
  obs::counter_add("test.before", 100);
  obs::gauge_max("test.gauge", 9.0);
  const obs::StatsSnapshot base = obs::StatsRegistry::global().snapshot();

  obs::counter_add("test.before", 5);
  obs::counter_add("test.during", 2);
  const obs::StatsSnapshot delta = obs::StatsRegistry::global().delta_since(base);

  EXPECT_EQ(delta.counters.at("test.before"), 5u);  // increment only, not 105
  EXPECT_EQ(delta.counters.at("test.during"), 2u);
  // An untouched counter is absent from the delta, not reported as zero.
  obs::counter_add("test.untouched", 7);
  const obs::StatsSnapshot base2 = obs::StatsRegistry::global().snapshot();
  const obs::StatsSnapshot delta2 = obs::StatsRegistry::global().delta_since(base2);
  EXPECT_TRUE(delta2.counters.empty());
  // A gauge that did not grow past its base maximum is absent too.
  EXPECT_EQ(delta.gauges.find("test.gauge"), delta.gauges.end());
}

TEST_F(StatsTest, SnapshotDeltaSurvivesAResetBetweenSnapshots) {
  // A reset between base and delta makes counters read lower than the base.
  // The delta must drop such entries instead of wrapping to ~2^64.
  obs::counter_add("test.counter", 50);
  const obs::StatsSnapshot base = obs::StatsRegistry::global().snapshot();
  obs::StatsRegistry::global().reset();
  obs::counter_add("test.counter", 3);
  const obs::StatsSnapshot delta = obs::StatsRegistry::global().delta_since(base);
  EXPECT_EQ(delta.counters.find("test.counter"), delta.counters.end());
}

TEST_F(StatsTest, SnapshotToJsonRoundTrips) {
  obs::counter_add("test.counter", 3);
  obs::gauge_max("test.gauge", 2.5);
  const obs::StatsSnapshot snapshot = obs::StatsRegistry::global().snapshot();
  const obs::JsonValue document =
      obs::parse_json(obs::write_json_compact(obs::snapshot_to_json(snapshot)));
  EXPECT_DOUBLE_EQ(document.at("counters").at("test.counter").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(document.at("gauges").at("test.gauge").as_number(), 2.5);
}

TEST_F(StatsJson, CompactWriterIsOneLineAndBitwiseStable) {
  obs::JsonValue object = obs::JsonValue::object();
  object.set("p", obs::JsonValue(0.010198025684297257));
  object.set("text", obs::JsonValue(std::string("a\nb")));
  obs::JsonValue array = obs::JsonValue::array();
  array.push_back(obs::JsonValue(1.0 / 3.0));
  object.set("xs", std::move(array));
  const std::string line = obs::write_json_compact(object);
  // NDJSON framing requires the payload itself to be newline-free.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const obs::JsonValue back = obs::parse_json(line);
  // Shortest round-trip formatting must reproduce the doubles bitwise.
  EXPECT_TRUE(core::exactly_equal(back.at("p").as_number(), 0.010198025684297257));
  EXPECT_TRUE(core::exactly_equal(back.at("xs").items()[0].as_number(), 1.0 / 3.0));
  EXPECT_EQ(back.at("text").as_string(), "a\nb");
}

/// The workload used for the thread-merge determinism check: fan out over
/// `items` elements, record one counter increment, a value-dependent gauge,
/// and a timed scope per element.
void run_instrumented_workload(std::size_t items, unsigned threads) {
  parallel::parallel_for(items, threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      obs::ScopedTimer timer("test.work");
      obs::counter_add("test.items");
      obs::counter_add("test.weighted", i);
      obs::gauge_max("test.largest", static_cast<double>(i));
    }
  });
}

class StatsThreadMerge : public StatsTest {};

TEST_F(StatsThreadMerge, TotalsAreIdenticalAtEveryThreadCount) {
  constexpr std::size_t kItems = 1000;
  std::map<std::string, std::uint64_t> reference_counters;
  std::map<std::string, double> reference_gauges;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::StatsRegistry::global().reset();
    run_instrumented_workload(kItems, threads);
    auto counters = obs::StatsRegistry::global().counters();
    const auto gauges = obs::StatsRegistry::global().gauges();
    // The pool's self-metrics describe the actual schedule (one chunk per
    // worker), so they legitimately vary with the thread count — only the
    // workload counters must be thread-invariant.
    std::erase_if(counters,
                  [](const auto& entry) { return entry.first.rfind("thread_pool.", 0) == 0; });
    EXPECT_EQ(counters.at("test.items"), kItems) << "threads=" << threads;
    EXPECT_EQ(counters.at("test.weighted"), kItems * (kItems - 1) / 2)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(gauges.at("test.largest"), static_cast<double>(kItems - 1))
        << "threads=" << threads;
    if (threads == 1u) {
      reference_counters = counters;
      reference_gauges = gauges;
    } else {
      EXPECT_EQ(counters, reference_counters) << "threads=" << threads;
      EXPECT_EQ(gauges, reference_gauges) << "threads=" << threads;
    }
    // The per-element timer always lands at the root of each worker's tree
    // and merges into one root child with one call per element.
    const obs::TraceNode trace = obs::StatsRegistry::global().trace();
    const obs::TraceNode* work = trace.find("test.work");
    ASSERT_NE(work, nullptr) << "threads=" << threads;
    EXPECT_EQ(work->calls, kItems) << "threads=" << threads;
  }
}

TEST_F(StatsThreadMerge, WorkerDataIsVisibleImmediatelyAfterTheRegion) {
  // Regression guard for the flush ordering: the pool must flush each
  // worker's block before run() returns, so a snapshot taken right after
  // parallel_for sees every increment (no sleep, no second region).
  for (int round = 0; round < 20; ++round) {
    obs::StatsRegistry::global().reset();
    parallel::parallel_for(64, 8, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) obs::counter_add("test.round");
    });
    ASSERT_EQ(obs::StatsRegistry::global().counter("test.round"), 64u) << "round=" << round;
  }
}

TEST_F(StatsThreadMerge, OpenTimerOnMainThreadDefersOnlyTheTrace) {
  // A checker operator holds an open ScopedTimer while it fans work out to
  // the pool. The main thread participates in the drain and flushes after
  // its chunks; its open timer must keep the trace pending (indices into the
  // tree stay valid) while counters still merge.
  obs::ScopedTimer outer("test.region");
  parallel::parallel_for(256, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) obs::counter_add("test.inside");
  });
  EXPECT_EQ(obs::StatsRegistry::global().counter("test.inside"), 256u);
}

}  // namespace
}  // namespace csrlmrm
