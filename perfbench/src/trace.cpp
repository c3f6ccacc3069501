#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "models", "io", "lang", "logic", "core", "graph",
    "linalg", "numeric", "checker", "plan", "daemon"};

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Adds each node's self time (total minus its children) to its layer.
void fold_obs_node(const csrlmrm::obs::TraceNode& node, double weight,
                   std::array<double, kLayerCount>& self_ns,
                   std::map<std::string, double>& timer_self_ns) {
  double children_ns = 0.0;
  for (const auto& child : node.children) {
    children_ns += static_cast<double>(child.total_ns);
    fold_obs_node(child, weight, self_ns, timer_self_ns);
  }
  const double self = std::max(0.0, static_cast<double>(node.total_ns) - children_ns);
  self_ns[static_cast<std::size_t>(layer_of_timer(node.name))] += weight * self;
  timer_self_ns[node.name] += weight * self;
}

}  // namespace

const char* layer_name(Layer layer) { return kLayerNames[static_cast<std::size_t>(layer)]; }

Layer layer_of_timer(const std::string& name) {
  if (starts_with(name, "checker.")) return Layer::kChecker;
  if (starts_with(name, "solver.")) return Layer::kLinalg;
  if (starts_with(name, "plan.")) return Layer::kPlan;
  if (starts_with(name, "generator.")) return Layer::kModels;
  // classdp.*, uniformization.*, discretization.*, transient.*: the numeric
  // engines. The series' SpMV calls into linalg carry no timer of their own,
  // so their time stays with numeric.
  return Layer::kNumeric;
}

int Tracer::open(const char* name, Layer layer, bool opaque) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, layer, now_ns(), 0, parent, in_query_ ? query_ : 0, opaque});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::begin_query() {
  ++query_;
  in_query_ = true;
}

void Tracer::end_query(double query_ns) {
  in_query_ = false;
  query_ns_ += query_ns;
}

void Tracer::attach_obs(Layer parent, const csrlmrm::obs::TraceNode& root, double weight) {
  double top_ns = 0.0;
  for (const auto& child : root.children) {
    top_ns += static_cast<double>(child.total_ns);
    fold_obs_node(child, weight, obs_self_ns_, timer_self_ns_);
  }
  covered_ns_[static_cast<std::size_t>(parent)] += weight * top_ns;
}

void Tracer::claim(Layer to, double ns) { claimed_.push_back({to, ns}); }

void Tracer::reassign(Layer from, Layer to, double ns) {
  reassigned_.push_back({{from, to}, ns});
}

Tracer::Attribution Tracer::attribution(const std::vector<Tracer>& tracers) {
  Attribution result;
  std::array<double, kLayerCount> opaque_ns{};
  std::array<double, kLayerCount> covered_ns{};
  for (const Tracer& tracer : tracers) {
    const auto& spans = tracer.spans_;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.query == 0) continue;
      const double self =
          std::max(0.0, static_cast<double>(span.end_ns - span.start_ns) - child_ns[i]);
      (span.opaque ? opaque_ns : result.self_ns)[static_cast<std::size_t>(span.layer)] += self;
    }
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      result.self_ns[l] += tracer.obs_self_ns_[l];
      covered_ns[l] += tracer.covered_ns_[l];
    }
    result.query_ns += tracer.query_ns_;
  }
  double remainder = 0.0;  // opaque time no obs timer covers
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    remainder += std::max(0.0, opaque_ns[l] - covered_ns[l]);
  }
  for (const Tracer& tracer : tracers) {
    for (const auto& [layer, ns] : tracer.claimed_) {
      const double moved = std::min(remainder, ns);
      remainder -= moved;
      result.self_ns[static_cast<std::size_t>(layer)] += moved;
      result.overclaimed_ns += ns - moved;
    }
  }
  for (const Tracer& tracer : tracers) {
    for (const auto& [layers, ns] : tracer.reassigned_) {
      double& from = result.self_ns[static_cast<std::size_t>(layers.first)];
      const double moved = std::min(from, ns);
      from -= moved;
      result.self_ns[static_cast<std::size_t>(layers.second)] += moved;
    }
  }
  double attributed = 0.0;
  for (const double ns : result.self_ns) attributed += ns;
  result.unattributed_ns = std::max(0.0, result.query_ns - attributed);
  return result;
}

bool Tracer::write_spans(const std::string& path) const {
  constexpr std::size_t limit = 20000;
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%llu,"
                  "\"end_ns\":%llu,\"parent\":%d,\"query\":%llu}\n",
                  i, span.name, layer_name(span.layer),
                  static_cast<unsigned long long>(span.start_ns),
                  static_cast<unsigned long long>(span.end_ns), span.parent,
                  static_cast<unsigned long long>(span.query));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
