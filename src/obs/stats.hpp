// Engine observability: named counters, max-gauges, and scoped trace timers
// feeding a process-wide StatsRegistry that serializes to JSON.
//
// Every numeric engine, solver, and checker operator reports what it did —
// solver sweeps, Poisson truncation windows, DFS paths generated and cut,
// SpMV rows touched, thread-pool tasks — so accuracy/cost trade-offs (the
// truncation probability w, the discretization step d) can be read off a
// run instead of guessed. `mrmcheck --stats` and the bench harnesses dump
// the registry; EXPERIMENTS.md walks through reading one.
//
// Design constraints, in order:
//
//   1. Zero cost when compiled out: with CSRLMRM_STATS_COMPILED=0 every
//      recording call is an empty inline function and ScopedTimer an empty
//      object — the build target `csrlmrm_nostats` proves this path compiles
//      warning-free. Near-zero cost when merely disabled at runtime (the
//      default): one relaxed atomic load and branch per call site.
//   2. Race-free under ThreadSanitizer: recording goes to a thread-local
//      block; the thread pool flushes each worker's block into the global
//      registry at the end of every executed chunk (before the region is
//      reported complete), so no two threads ever touch the same counter
//      slot unsynchronized.
//   3. Deterministic aggregation: counters merge by addition and gauges by
//      maximum — both order-independent — so for a fixed workload the
//      registry totals are identical at every thread count (asserted by
//      tests/test_stats.cpp at 1/2/8 threads).
//
// Naming convention: dotted lower-case paths, "<layer>.<component>.<what>",
// e.g. "solver.gauss_seidel.iterations", "uniformization.paths_truncated",
// "poisson.window.right". The JSON schema is documented in README.md
// ("Observability").
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Compile-time gate. Builds that define CSRLMRM_STATS_COMPILED=0 turn every
// recording call into a no-op; the registry/JSON side stays available so
// callers (mrmcheck, benches) need no conditional code — they just see an
// empty registry.
#ifndef CSRLMRM_STATS_COMPILED
#define CSRLMRM_STATS_COMPILED 1
#endif

namespace csrlmrm::obs {

/// One node of the trace tree: a named scope with call count, accumulated
/// wall-clock nanoseconds, and children in first-seen order. Timers opened
/// inside thread-pool tasks root at the worker's own tree and merge into the
/// registry root, so cross-thread nesting flattens one level (documented
/// behavior, not a bug).
struct TraceNode {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::vector<TraceNode> children;

  /// The child with this name, or nullptr.
  const TraceNode* find(std::string_view child_name) const;
};

/// Point-in-time copy of a registry's counters and gauges, taken before a
/// request so the work attributable to that request can be reported as a
/// *delta* instead of the process-lifetime totals. A long-lived service
/// (mrmcheckd) serves hundreds of queries from one process; without deltas
/// every response would report cumulative `classdp.*` / `plan.*` numbers.
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// Thread-safe store of counters (merge: sum), gauges (merge: max), and the
/// merged trace tree. One global instance backs the whole process; local
/// instances exist for unit tests.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// The process-wide registry that thread-local blocks flush into.
  static StatsRegistry& global();

  void add_counter(std::string_view name, std::uint64_t delta);
  void max_gauge(std::string_view name, double value);
  /// Merges a whole trace tree (same-named children sum their calls/time).
  void merge_trace(const TraceNode& root);

  /// Snapshots. The calling thread's pending block is flushed first when
  /// this is the global registry, so a serial caller always sees its own
  /// writes. Counter/gauge maps are ordered by name; trace children are
  /// sorted by name for deterministic output.
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  TraceNode trace() const;

  /// One counter value; 0 when never written.
  std::uint64_t counter(std::string_view name) const;
  /// One gauge value; NaN when never written.
  double gauge(std::string_view name) const;

  /// The full registry as a JSON document (schema "csrlmrm-stats-v1", see
  /// README.md): {"schema", "counters": {...}, "gauges": {...},
  /// "trace": {...}} with trace times in both ns and ms.
  std::string to_json() const;

  /// Counters/gauges right now (the calling thread's pending block flushed
  /// first when this is the global registry). Callers that run work on other
  /// threads must ensure those threads flushed (the thread pool does so after
  /// every chunk; a service worker calls flush_thread() when its request
  /// ends) or the snapshot under-counts.
  StatsSnapshot snapshot() const;

  /// What happened since `base`: counters subtract (a counter absent from
  /// the base counts from 0; counters never decrease). Gauges merge by max
  /// and cannot be subtracted — the delta carries a gauge only when it is
  /// new or higher than in the base, with its current value. Scoped-reset
  /// alternative for callers that own the registry: reset() + snapshot().
  StatsSnapshot delta_since(const StatsSnapshot& base) const;

  /// Drops all recorded data (counters, gauges, trace).
  void reset();

 private:
  /// Flushes the calling thread's pending block when this is the global
  /// registry (no-op otherwise, and when stats are compiled out).
  void flush_calling_thread_if_global() const;

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  TraceNode root_{"root", 0, 0, {}};
};

class JsonValue;

/// A snapshot as the JSON object {"counters": {...}, "gauges": {...}} — the
/// shape of StatsRegistry::to_json() minus schema and trace. The mrmcheckd
/// responses embed per-request deltas this way.
JsonValue snapshot_to_json(const StatsSnapshot& snapshot);

/// Runtime switch. Defaults to the CSRLMRM_STATS environment variable (unset
/// or "0" = disabled); mrmcheck --stats and the benches enable it
/// explicitly. Reading is one relaxed atomic load.
bool stats_enabled();
void set_stats_enabled(bool on);

#if CSRLMRM_STATS_COMPILED

/// Adds `delta` to the named counter in the calling thread's block.
void counter_add(std::string_view name, std::uint64_t delta = 1);

/// Raises the named gauge to at least `value` in the calling thread's block.
void gauge_max(std::string_view name, double value);

/// Merges the calling thread's block into the global registry. Counters and
/// gauges always merge; the trace merges only when no ScopedTimer is open on
/// this thread (open timers keep indices into the pending tree). The thread
/// pool calls this after every executed chunk; serial code never needs to —
/// global-registry snapshots flush the calling thread automatically.
void flush_thread();

/// RAII trace scope: nests under the innermost open ScopedTimer of the same
/// thread. The name must outlive the timer (string literals in practice).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
};

#else  // CSRLMRM_STATS_COMPILED == 0: everything below compiles to nothing.

inline void counter_add(std::string_view, std::uint64_t = 1) {}
inline void gauge_max(std::string_view, double) {}
inline void flush_thread() {}

class ScopedTimer {
 public:
  explicit ScopedTimer(const char*) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

#endif  // CSRLMRM_STATS_COMPILED

}  // namespace csrlmrm::obs
