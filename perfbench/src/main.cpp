// perfbench: the checker's benchmark program.
//
//   perfbench env
//       prints the environment block (one JSON line).
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--root DIR] [--scratch DIR]
//       runs one workload in this process and prints its record (one JSON
//       line): end-to-end metrics untraced, per-layer metrics traced.
//   perfbench record --workload W [--root DIR] [--scratch DIR]
//       answers the whole query pool with direct ModelChecker calls and
//       writes perfbench/golden/W.tsv.
//
// perfbench/run.py builds this program and wraps it in the benchmark's
// command line (see perfbench/README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "env.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using csrlmrm::obs::JsonValue;
using namespace perfbench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string scratch = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench env|run|record [options]");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

void set_metric(JsonValue& metrics, const std::string& name, double value, const char* unit) {
  JsonValue metric = JsonValue::object();
  metric.set("value", JsonValue(std::isfinite(value) ? value : 0.0));
  metric.set("unit", JsonValue(std::string(unit)));
  metrics.set(name, std::move(metric));
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Everything the timed phase accumulates. Guarded by `mutex` when several
/// clients report.
struct Tally {
  std::mutex mutex;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double max_width = 0.0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> class_ms;  // untraced, per query class
  // Traced requests only.
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::size_t traced_requests = 0;
  std::size_t traced_checks = 0;
  std::size_t traced_formulas = 0;
  std::size_t reward_bounded = 0;
  std::size_t poisson_misses = 0;
  std::size_t registry_hits = 0;
  std::size_t batch_requests = 0;
  std::size_t degraded = 0;
  double load_ns = 0.0;
};

void add_counters(std::map<std::string, double>& into,
                  const std::map<std::string, std::uint64_t>& counters) {
  for (const auto& [name, value] : counters) into[name] += static_cast<double>(value);
}

void max_gauges(std::map<std::string, double>& into, const std::map<std::string, double>& gauges) {
  for (const auto& [name, value] : gauges) {
    if (std::isfinite(value)) into[name] = std::max(into[name], value);
  }
}

double get(const std::map<std::string, double>& map, const std::string& name) {
  const auto found = map.find(name);
  return found == map.end() ? 0.0 : found->second;
}

/// Grades one request against the golden answers and records it.
void tally(Tally& t, const Golden& golden, const std::string& query_class,
           const Outcome& outcome, bool traced,
           const std::map<std::string, std::uint64_t>& counters,
           const std::map<std::string, double>& gauges, bool accumulate_counters) {
  bool ok = true;
  std::string why;
  double width = 0.0;
  for (const auto& [key, answer] : outcome.answers) {
    bool passed = true;
    if (key.empty()) {
      passed = answer.ok;
      if (!passed) why = "load failed: " + answer.error;
    } else {
      passed = golden.check(key, answer, why);
      if (passed) width = std::max(width, answer.max_width);
    }
    if (!passed) {
      ok = false;
      why = key + ": " + why;
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(t.mutex);
  ++t.attempted;
  if (!ok) {
    ++t.failed;
    if (t.failures.size() < 5) t.failures.push_back(why);
  }
  t.max_width = std::max(t.max_width, width);
  (traced ? t.traced_ms : t.untraced_ms).push_back(ns_to_ms(outcome.latency_ns));
  if (!traced) {
    t.class_ms[query_class].push_back(ns_to_ms(outcome.latency_ns));
    return;
  }
  ++t.traced_requests;
  if (accumulate_counters) {
    add_counters(t.counters, counters);
    max_gauges(t.gauges, gauges);
  }
  for (const auto& [key, answer] : outcome.answers) {
    if (answer.degraded) ++t.degraded;
  }
  if (outcome.is_load) {
    t.load_ns += outcome.latency_ns;
    return;
  }
  ++t.traced_checks;
  t.traced_formulas += outcome.answers.size();
  t.batch_requests += outcome.batch_requests;
  if (outcome.registry_hit) ++t.registry_hits;
  if (outcome.reward_bounded) {
    ++t.reward_bounded;
    // The Poisson tail cache records an occupancy gauge only when it builds a
    // table and counts an eviction when it drops one: either means a miss.
    const auto evictions = counters.find("poisson.tail_cache_evictions");
    if (gauges.count("poisson.tail_cache_occupancy") != 0 ||
        (evictions != counters.end() && evictions->second > 0)) {
      ++t.poisson_misses;
    }
  }
}

int run_workload(const Args& args) {
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.root, args.scratch);
  Golden golden;
  const std::string golden_path = args.root + "/perfbench/golden/" + args.workload + ".tsv";
  if (!golden.load(golden_path)) {
    std::fprintf(stderr, "perfbench: cannot read golden answers %s\n", golden_path.c_str());
    return 2;
  }

  // Set-up, repeated: once before the timed phase and again between its
  // blocks, so the samples span the same host phases as the queries. Each
  // burst tears down and sets up again until 40 ms have passed (short
  // set-ups give many samples against timer and page-fault jitter); the
  // median of the set-up times is the metric. The workload then warms its
  // caches, untimed.
  std::vector<double> setup_s;
  std::vector<double> explore_s;
  std::array<double, kLayerCount> setup_layers{};
  bool built = false;
  auto set_up = [&] {
    const std::uint64_t burst_start = now_ns();
    do {
      if (built) workload->teardown();  // untimed
      built = true;
      Tracer setup_tracer;
      const std::uint64_t start = now_ns();
      workload->setup(&setup_tracer);
      setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      double models_ns = 0.0;
      for (const auto& span : setup_tracer.spans()) {
        if (span.parent >= 0) continue;
        const double ns = static_cast<double>(span.end_ns - span.start_ns);
        setup_layers[static_cast<std::size_t>(span.layer)] += ns;
        if (span.layer == Layer::kModels) models_ns += ns;
      }
      explore_s.push_back(models_ns * 1e-9);
    } while (now_ns() - burst_start < 40'000'000ULL);
    workload->warm_up(1.0);
  };
  set_up();

  std::vector<std::size_t> order = workload->request_order(args.seed);
  order.erase(std::remove_if(order.begin(), order.end(),
                             [&](std::size_t index) {
                               return golden.excluded(workload->describe_query(index));
                             }),
              order.end());
  JsonValue first_queries = JsonValue::array();
  for (std::size_t i = 0; i < 8 && i < order.size(); ++i) {
    first_queries.push_back(JsonValue(workload->describe_query(order[i])));
  }
  const std::size_t clients = workload->clients();
  std::vector<Tracer> tracers(clients);
  Tally t;
  auto& registry = csrlmrm::obs::StatsRegistry::global();
  csrlmrm::obs::set_stats_enabled(false);

  // Timed phase: blocks of one second with a set-up burst between them. A
  // traced run alternates half-second blocks untraced and traced, so the
  // tracing overhead is measured across the same host phases.
  const ProcessUsage usage_start = process_usage();
  const std::uint64_t block_ns = args.trace ? 500'000'000ULL : 1'000'000'000ULL;
  const std::uint64_t total_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t timed_ns = 0;
  std::vector<double> block_p50_ms;  // untraced blocks
  std::vector<std::size_t> next(clients, 0);
  for (std::size_t block = 0; timed_ns < total_ns; ++block) {
    if (block > 0) set_up();
    const bool traced = args.trace && block % 2 == 1;
    const std::uint64_t block_start = now_ns();
    const std::uint64_t block_end = block_start + std::min(block_ns, total_ns - timed_ns);
    if (traced) {
      registry.reset();
      csrlmrm::obs::set_stats_enabled(true);
    }
    std::size_t checks_in_block = 0;
    const std::size_t untraced_before = t.untraced_ms.size();
    std::mutex block_mutex;
    auto serve = [&](std::size_t client) {
      Tracer* tracer = traced ? &tracers[client] : nullptr;
      while (now_ns() < block_end) {
        const std::size_t index = order[(client + clients * next[client]++) % order.size()];
        if (tracer != nullptr) {
          tracer->begin_query();
          if (workload->in_process()) registry.reset();
        }
        Outcome outcome = workload->run(client, index, tracer);
        std::map<std::string, std::uint64_t> counters = outcome.counters;
        std::map<std::string, double> gauges = outcome.gauges;
        if (tracer != nullptr) {
          tracer->end_query(outcome.latency_ns);
          if (workload->in_process()) {
            tracer->attach_obs(Layer::kChecker, registry.trace());
            counters = registry.counters();
            gauges = registry.gauges();
          }
          if (!outcome.is_load) {
            const std::lock_guard<std::mutex> lock(block_mutex);
            ++checks_in_block;
          }
        }
        tally(t, golden, workload->query_class(index), outcome, traced, counters, gauges,
              workload->in_process());
      }
    };
    if (clients == 1) {
      serve(0);
    } else {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(serve, c);
      for (auto& thread : threads) thread.join();
    }
    timed_ns += now_ns() - block_start;
    if (t.untraced_ms.size() > untraced_before) {
      block_p50_ms.push_back(median(std::vector<double>(
          t.untraced_ms.begin() + static_cast<std::ptrdiff_t>(untraced_before), t.untraced_ms.end())));
    }
    if (traced) {
      csrlmrm::obs::set_stats_enabled(false);
      workload->end_traced_block();
      if (!workload->in_process()) {
        // The dispatcher runs the batches serially; each batch's work is
        // waited for by every request it served, so the service-side timers
        // count once per request: weight = requests per batch.
        const double batches = static_cast<double>(registry.counter("daemon.batches"));
        tracers[0].attach_obs(Layer::kDaemon, registry.trace(),
                              ratio(static_cast<double>(checks_in_block), batches));
        const std::lock_guard<std::mutex> lock(t.mutex);
        add_counters(t.counters, registry.counters());
        max_gauges(t.gauges, registry.gauges());
      }
    }
  }
  const double wall_s = static_cast<double>(timed_ns) * 1e-9;
  const ProcessUsage usage_end = process_usage();
  const double minor_faults = usage_end.minor_faults - usage_start.minor_faults;
  const double system_s = usage_end.system_s - usage_start.system_s;
  const double cpu_s = system_s + usage_end.user_s - usage_start.user_s;
  JsonValue models = workload->describe_models();
  const std::size_t setup_states = workload->setup_states();
  workload->teardown();

  JsonValue metrics = JsonValue::object();
  JsonValue detail = JsonValue::object();
  const std::size_t completed = t.untraced_ms.size() + t.traced_ms.size();
  if (!args.trace) {
    set_metric(metrics, "setup_s", median(setup_s), "s");
    // The host's speed drifts in phases of seconds. Pooled over the run, a
    // narrow latency distribution turns bimodal and its median jumps between
    // the fast and the slow mode; the mean of per-block medians moves in
    // proportion to the share of slow blocks instead.
    set_metric(metrics, "query_p50_ms", mean(block_p50_ms), "ms");
    set_metric(metrics, "query_p90_ms", quantile(t.untraced_ms, 0.9), "ms");
    set_metric(metrics, "queries_per_s", static_cast<double>(completed) / wall_s, "1/s");
    set_metric(metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
    set_metric(metrics, "max_interval_width", t.max_width, "1");
    set_metric(metrics, "answered_ratio",
               1.0 - ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)), "1");
    detail.set("query_samples", JsonValue(static_cast<double>(t.untraced_ms.size())));
    detail.set("pooled_p50_ms", JsonValue(median(t.untraced_ms)));
    JsonValue blocks = JsonValue::array();
    for (const double ms : block_p50_ms) blocks.push_back(JsonValue(ms));
    detail.set("block_p50_ms", std::move(blocks));
    detail.set("samples_beyond_p90",
               JsonValue(std::floor(0.1 * static_cast<double>(t.untraced_ms.size()))));
  } else {
    const Tracer::Attribution a = Tracer::attribution(tracers);
    std::map<std::string, double> timer_self;
    std::vector<double> parse_ns;
    for (const Tracer& tracer : tracers) {
      for (const auto& [name, ns] : tracer.timer_self_ns()) timer_self[name] += ns;
      parse_ns.insert(parse_ns.end(), tracer.parse_ns().begin(), tracer.parse_ns().end());
    }
    const double q = std::max(a.query_ns, 1.0);
    auto pct = [q](double ns) { return 100.0 * ns / q; };
    const double n = std::max<double>(1.0, static_cast<double>(t.traced_requests));
    const double checks = std::max<double>(1.0, static_cast<double>(t.traced_checks));
    const auto& c = t.counters;
    set_metric(metrics, "trace.query_p50_ms", median(t.traced_ms), "ms");
    set_metric(metrics, "trace.overhead_ms", median(t.traced_ms) - median(t.untraced_ms), "ms");
    set_metric(metrics, "trace.attributed_pct", pct(a.query_ns - a.unattributed_ns), "%");
    set_metric(metrics, "unattributed.self_pct", pct(a.unattributed_ns), "%");
    for (const Layer layer : {Layer::kLogic, Layer::kCore, Layer::kGraph, Layer::kLinalg,
                              Layer::kNumeric, Layer::kChecker, Layer::kPlan, Layer::kDaemon}) {
      set_metric(metrics, std::string(layer_name(layer)) + ".self_pct",
                 pct(a.self_ns[static_cast<std::size_t>(layer)]), "%");
    }
    double setup_total = 0.0;
    for (const double ns : setup_layers) setup_total += ns;
    for (const Layer layer : {Layer::kModels, Layer::kIo, Layer::kLang, Layer::kDaemon}) {
      set_metric(metrics, std::string("setup.") + layer_name(layer) + "_pct",
                 100.0 * ratio(setup_layers[static_cast<std::size_t>(layer)], setup_total), "%");
    }
    const double explore = median(explore_s);
    set_metric(metrics, "models.explore_s", explore, "s");
    set_metric(metrics, "models.states_per_s",
               ratio(static_cast<double>(setup_states), explore), "1/s");
    set_metric(metrics, "logic.parse_us", median(parse_ns) * 1e-3, "us");
    set_metric(metrics, "graph.bscc_count", get(c, "checker.steady.bsccs") / n, "count");
    set_metric(metrics, "linalg.solver_iterations",
               (get(c, "solver.gauss_seidel.iterations") + get(c, "solver.jacobi.iterations") +
                get(c, "solver.steady_state_gauss_seidel.iterations")) / n,
               "count");
    double series_ns = 0.0;
    for (const auto& [name, ns] : timer_self) {
      if (name.rfind("transient.", 0) == 0) series_ns += ns;
    }
    const double terms = get(c, "transient.series_terms");
    set_metric(metrics, "numeric.series_terms", terms / n, "count");
    set_metric(metrics, "numeric.terms_per_s", ratio(terms, series_ns * 1e-9), "1/s");
    set_metric(metrics, "numeric.series_runs_per_query",
               (get(c, "transient.calls") + get(c, "transient.hit_calls") +
                get(c, "transient.occupation_calls")) / n,
               "count");
    set_metric(metrics, "numeric.omega_evaluations", get(c, "omega.evaluations") / n, "count");
    set_metric(metrics, "numeric.classdp_frontier_classes", get(t.gauges, "classdp.frontier_peak"),
               "count");
    // Class-DP frontier classes and DFPG path nodes processed.
    set_metric(metrics, "numeric.nodes_expanded",
               (get(c, "classdp.nodes_expanded") + get(c, "uniformization.nodes_expanded")) / n,
               "count");
    const double omega_hits = get(c, "omega.shared_cache_hits");
    set_metric(metrics, "numeric.omega_cache_hit_ratio",
               ratio(omega_hits, omega_hits + get(c, "omega.shared_cache_misses")), "1");
    set_metric(metrics, "numeric.poisson_tail_hit_ratio",
               t.reward_bounded == 0
                   ? 0.0
                   : 1.0 - ratio(static_cast<double>(t.poisson_misses),
                                 static_cast<double>(t.reward_bounded)),
               "1");
    set_metric(metrics, "checker.until_pct",
               pct(get(timer_self, "checker.until") + get(timer_self, "checker.until.unbounded")),
               "%");
    set_metric(metrics, "checker.steady_pct", pct(get(timer_self, "checker.steady")), "%");
    set_metric(metrics, "checker.reward_pct",
               pct(get(timer_self, "checker.expected_reward") +
                   get(timer_self, "checker.performability")),
               "%");
    set_metric(metrics, "checker.unknown_states", get(c, "checker.verdicts.unknown"), "count");
    set_metric(metrics, "core.transform_cache_hits_per_query", get(c, "transform.cache_hits") / checks,
               "count");
    set_metric(metrics, "plan.solves_per_formula",
               ratio(get(c, "checker.until.calls") + get(c, "checker.until.unbounded.calls") +
                         get(c, "checker.steady.calls") + get(c, "checker.next.calls"),
                     static_cast<double>(t.traced_formulas)),
               "1");
    const bool service = !workload->in_process();
    set_metric(metrics, "daemon.batch_requests_mean",
               service ? ratio(static_cast<double>(t.batch_requests), checks) : 0.0, "1");
    set_metric(metrics, "daemon.registry_hit_ratio",
               service ? ratio(static_cast<double>(t.registry_hits), checks) : 0.0, "1");
    set_metric(metrics, "daemon.load_pct", pct(t.load_ns), "%");
    double wait_ns = 0.0;
    for (const Tracer& tracer : tracers) wait_ns += tracer.wait_ns();
    set_metric(metrics, "daemon.queue_wait_pct", pct(wait_ns), "%");
    set_metric(metrics, "daemon.degraded_ratio", static_cast<double>(t.degraded) / n, "1");

    JsonValue layers = JsonValue::object();
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layers.set(layer_name(static_cast<Layer>(l)), JsonValue(a.self_ns[l] * 1e-6));
    }
    layers.set("unattributed", JsonValue(a.unattributed_ns * 1e-6));
    layers.set("overclaimed", JsonValue(a.overclaimed_ns * 1e-6));
    layers.set("traced_query_total", JsonValue(a.query_ns * 1e-6));
    detail.set("self_ms", std::move(layers));
    JsonValue timers = JsonValue::object();
    for (const auto& [name, ns] : timer_self) timers.set(name, JsonValue(ns * 1e-6));
    detail.set("timer_self_ms", std::move(timers));
    detail.set("traced_requests", JsonValue(static_cast<double>(t.traced_requests)));
    tracers[0].write_spans(args.scratch + "/" + args.workload + ".spans.jsonl");
  }

  JsonValue classes = JsonValue::object();
  for (const auto& [name, samples] : t.class_ms) {
    JsonValue entry = JsonValue::object();
    entry.set("n", JsonValue(static_cast<double>(samples.size())));
    entry.set("p50_ms", JsonValue(median(samples)));
    classes.set(name, std::move(entry));
  }
  detail.set("classes", std::move(classes));
  detail.set("timed_wall_s", JsonValue(wall_s));
  // From the start of the timed phase to its end, set-up bursts included.
  detail.set("phase_minor_faults", JsonValue(minor_faults));
  detail.set("phase_system_cpu_s", JsonValue(system_s));
  detail.set("phase_cpu_s", JsonValue(cpu_s));
  detail.set("requests", JsonValue(static_cast<double>(completed)));
  JsonValue setups = JsonValue::array();
  for (const double s : setup_s) setups.push_back(JsonValue(s));
  detail.set("setup_s_samples", std::move(setups));
  detail.set("peak_rss_mib", JsonValue(peak_rss_mib()));
  detail.set("models", std::move(models));
  detail.set("first_queries", std::move(first_queries));
  JsonValue failures = JsonValue::array();
  for (const std::string& why : t.failures) failures.push_back(JsonValue(why));
  detail.set("failures", std::move(failures));

  JsonValue record = JsonValue::object();
  record.set("workload", JsonValue(args.workload));
  record.set("seed", JsonValue(static_cast<double>(args.seed)));
  record.set("trace", JsonValue(args.trace));
  record.set("correct", JsonValue(t.failed == 0 && t.attempted > 0));
  record.set("attempted", JsonValue(static_cast<double>(t.attempted)));
  record.set("failed", JsonValue(static_cast<double>(t.failed)));
  record.set("metrics", std::move(metrics));
  record.set("detail", std::move(detail));
  std::printf("%s\n", csrlmrm::obs::write_json_compact(record).c_str());
  return t.failed == 0 && t.attempted > 0 ? 0 : 1;
}

int record_golden(const Args& args) {
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.root, args.scratch);
  workload->setup(nullptr);
  Golden golden;
  std::size_t problems = 0;
  // Reference latency per query class (the key up to its model name), so
  // the pool's class sizing can be read off a recording.
  std::map<std::string, std::vector<double>> class_ms;
  for (std::size_t index = 0; index < workload->pool_size(); ++index) {
    const std::uint64_t start = now_ns();
    const auto answers = workload->reference(index);
    const double ms = ns_to_ms(static_cast<double>(now_ns() - start));
    if (!answers.empty()) class_ms[workload->query_class(index)].push_back(ms);
    for (const auto& [key, answer] : answers) {
      if (!answer.ok) {
        std::fprintf(stderr, "failed pool entry %s: %s\n", key.c_str(), answer.error.c_str());
        ++problems;
      } else if (answer.verdicts.find('?') != std::string::npos) {
        // The threshold lies inside some state's enclosure at the configured
        // accuracy: not a decidable query, so runs skip it.
        if (workload->describe_query(index) != key) {
          std::fprintf(stderr, "undecidable service entry %s\n", key.c_str());
          ++problems;
        }
        golden.exclude(key);
      } else {
        golden.record(key, answer);
      }
    }
  }
  workload->teardown();
  for (const auto& [name, samples] : class_ms) {
    std::printf("class %-28s n=%4zu median %9.3f ms  p10 %9.3f  p90 %9.3f\n", name.c_str(),
                samples.size(), median(samples), quantile(samples, 0.1), quantile(samples, 0.9));
  }
  const std::string path = args.root + "/perfbench/golden/" + args.workload + ".tsv";
  if (!golden.save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu answers to %s (%zu excluded as undecidable, %zu failed)\n",
              golden.size(), path.c_str(), golden.excluded_count(), problems);
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "env") {
      std::printf("%s\n", csrlmrm::obs::write_json_compact(probe_environment()).c_str());
      return 0;
    }
    if (args.mode == "run") return run_workload(args);
    if (args.mode == "record") return record_golden(args);
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
