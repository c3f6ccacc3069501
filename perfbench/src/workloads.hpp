// The workloads. Each owns its models (built in setup()), a fixed pool
// of queries whose answers are recorded in perfbench/golden/<name>.tsv, and
// the code that sends one query through the public API it exercises.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one request returned: one (golden key, answer) per formula.
struct Outcome {
  std::vector<std::pair<std::string, Answer>> answers;
  /// Latency of the request itself, without untimed preparation.
  double latency_ns = 0.0;
  /// Some formula of the request bounds the reward (a P2 query).
  bool reward_bounded = false;
  /// Service requests only.
  bool is_load = false;
  bool registry_hit = true;
  std::size_t batch_requests = 1;
  /// Counters of the work this request caused (service replies carry them;
  /// run_workload fills them for in-process queries).
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Model load/generation and service start, after construction or
  /// teardown() (run_workload repeats the pair between blocks of the timed
  /// phase). Spans go to `tracer` when non-null.
  virtual void setup(Tracer* tracer) = 0;
  /// States built by setup() (for models.states_per_s).
  virtual std::size_t setup_states() const = 0;

  /// Concurrent closed-loop clients the workload drives.
  virtual std::size_t clients() const { return 1; }
  /// Size of the query pool and the request order a seed draws from it.
  virtual std::size_t pool_size() const = 0;
  virtual std::vector<std::size_t> request_order(std::uint64_t seed) const = 0;
  /// Human-readable text of pool entry `index` (printed in the record).
  virtual std::string describe_query(std::size_t index) const = 0;
  /// Short label of the entry's query class (model and operator), for the
  /// per-class latency breakdown.
  virtual std::string query_class(std::size_t index) const = 0;

  /// Sends pool entry `index` as client `client`. Spans of the layers it
  /// calls go to `tracer` when non-null.
  virtual Outcome run(std::size_t client, std::size_t index, Tracer* tracer) = 0;
  /// Queries run on the calling thread inside checker spans (true), or in a
  /// service's dispatcher behind daemon round trips (false).
  virtual bool in_process() const { return true; }

  /// Reference answers for the pool, by direct ModelChecker calls.
  virtual std::vector<std::pair<std::string, Answer>> reference(std::size_t index) = 0;

  /// Models and their sizes beside the cache sizes, for the record.
  virtual csrlmrm::obs::JsonValue describe_models() const = 0;

  /// Called after each traced block, once its clients have stopped: the
  /// attribution that needs every client's requests of the block.
  virtual void end_traced_block() {}

  /// Untimed work after each setup, before queries run (cache warm-up).
  virtual void warm_up(double /*seconds*/) {}
  /// Releases what setup() built and stops service threads.
  virtual void teardown() = 0;
};

/// Throws std::invalid_argument for an unknown name. `scratch_dir` holds
/// files the workload writes (sockets, generated model files).
std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& repo_root,
                                        const std::string& scratch_dir);

}  // namespace perfbench
