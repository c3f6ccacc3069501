// Spans recorded by the benchmark around its calls into each layer's public
// functions, plus the program's own obs timers read back after each traced
// query, folded into per-layer self time.
//
// A span's self time is its duration minus what its child spans (and the obs
// timer subtrees attached to it) cover. Wrapper spans (a whole
// ModelChecker check, a whole daemon round trip) are opaque: their self time
// is not given to their layer, only the parts of it that an obs timer covers
// or that a call re-timed outside the query claims. Time inside a traced
// query that nothing attributes is reported as "unattributed".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/stats.hpp"

namespace perfbench {

enum class Layer {
  kModels,
  kIo,
  kLang,
  kLogic,
  kCore,
  kGraph,
  kLinalg,
  kNumeric,
  kChecker,
  kPlan,
  kDaemon,
};
inline constexpr std::size_t kLayerCount = 11;

const char* layer_name(Layer layer);

/// The layer an obs timer belongs to, from its dotted name.
Layer layer_of_timer(const std::string& timer_name);

class Tracer {
 public:
  struct Span {
    const char* name;
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;  // index into spans(), -1 for a root
    std::uint64_t query;
    bool opaque;
  };

  /// Opens a span nested under the innermost open span.
  int open(const char* name, Layer layer, bool opaque = false);
  void close(int id);

  /// Starts a traced query: subsequent spans carry its id until end_query().
  void begin_query();
  /// Ends the query; `query_ns` is its end-to-end latency.
  void end_query(double query_ns);

  /// Attributes an obs trace tree (recorded inside opaque spans of layer
  /// `parent`) to the layers its timers belong to, scaled by `weight`; the
  /// covered time is taken out of those spans' opaque remainder.
  void attach_obs(Layer parent, const csrlmrm::obs::TraceNode& root, double weight = 1.0);

  /// Self time per obs timer name accumulated by attach_obs (ns, weighted).
  const std::map<std::string, double>& timer_self_ns() const { return timer_self_ns_; }

  /// One formula parse's duration, for logic.parse_us.
  void add_parse(double ns) { parse_ns_.push_back(ns); }
  const std::vector<double>& parse_ns() const { return parse_ns_; }

  /// Gives `to` time measured by re-running one of its calls outside the
  /// query (a part of an opaque span no obs timer covers); never more than
  /// the opaque remainder holds.
  void claim(Layer to, double ns);
  /// claim() for time a request waited in `to`'s queue; the waits are also
  /// reported on their own.
  void claim_wait(Layer to, double ns) {
    wait_ns_ += ns;
    claim(to, ns);
  }
  double wait_ns() const { return wait_ns_; }
  /// Moves attributed time from `from` to `to` (a part of `from`'s timers
  /// spent in `to`, estimated outside the query); never more than `from`
  /// holds.
  void reassign(Layer from, Layer to, double ns);

  struct Attribution {
    std::array<double, kLayerCount> self_ns{};
    double query_ns = 0.0;
    double unattributed_ns = 0.0;
    /// Claims beyond the opaque remainder (re-timed estimates that overlap),
    /// which are not attributed.
    double overclaimed_ns = 0.0;
  };
  /// Joint attribution of the queries of several tracers (one per client):
  /// obs trees attached to one tracer may cover opaque spans of another.
  static Attribution attribution(const std::vector<Tracer>& tracers);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans (at most the first 20000) as JSON lines; false on I/O
  /// failure.
  bool write_spans(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t query_ = 0;
  bool in_query_ = false;
  std::array<double, kLayerCount> obs_self_ns_{};
  std::array<double, kLayerCount> covered_ns_{};  // by attached obs trees, per parent layer
  std::map<std::string, double> timer_self_ns_;
  std::vector<double> parse_ns_;
  std::vector<std::pair<Layer, double>> claimed_;
  double wait_ns_ = 0.0;
  std::vector<std::pair<std::pair<Layer, Layer>, double>> reassigned_;
  double query_ns_ = 0.0;
};

/// RAII span on an optional tracer (no-op when null).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, Layer layer, bool opaque = false)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, layer, opaque) : -1) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
