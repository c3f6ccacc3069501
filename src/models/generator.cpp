#include "models/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include "models/crowd_epidemic.hpp"
#include "models/grid_network.hpp"
#include "models/virus_spread.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::models {

core::Mrm explore(const StateGenerator& generator, const ExploreOptions& options) {
  obs::ScopedTimer timer("generator.explore");
  const std::vector<std::string> props = generator.propositions();
  if (props.size() > 32) {
    throw std::invalid_argument("explore: a generator may declare at most 32 propositions");
  }

  // Key interning: first sight assigns the next dense index, which makes the
  // BFS queue, the index order, and the CSR row order one and the same.
  std::unordered_map<std::uint64_t, core::StateIndex> index_of;
  std::vector<std::uint64_t> keys;
  const std::size_t state_hint = generator.expected_states();
  if (state_hint > 0) {
    index_of.reserve(state_hint);
    keys.reserve(state_hint);
  }
  const auto intern = [&](std::uint64_t key) -> core::StateIndex {
    const auto [it, inserted] = index_of.try_emplace(key, keys.size());
    if (inserted) {
      if (options.max_states > 0 && keys.size() >= options.max_states) {
        throw std::runtime_error("explore: state space exceeds max_states=" +
                                 std::to_string(options.max_states));
      }
      keys.push_back(key);
    }
    return it->second;
  };

  for (const std::uint64_t key : generator.initial_states()) intern(key);
  if (keys.empty()) throw std::invalid_argument("explore: generator has no initial states");

  // Direct CSR assembly: each expanded row is sorted, merged, and appended;
  // no intermediate triplet buffer or per-row map ever exists.
  std::vector<std::size_t> row_ptr{0};
  std::vector<linalg::Entry> entries;
  std::vector<std::size_t> impulse_row_ptr{0};
  std::vector<linalg::Entry> impulse_entries;
  std::vector<double> rewards;
  std::vector<std::uint32_t> label_masks;
  const std::size_t transition_hint = generator.expected_transitions();
  if (transition_hint > 0) entries.reserve(transition_hint);
  if (state_hint > 0) {
    row_ptr.reserve(state_hint + 1);
    impulse_row_ptr.reserve(state_hint + 1);
    rewards.reserve(state_hint);
    label_masks.reserve(state_hint);
  }

  struct RowEntry {
    core::StateIndex col;
    double rate;
    double impulse;
  };
  std::vector<RowEntry> row;
  GeneratedState state;
  for (core::StateIndex s = 0; s < keys.size(); ++s) {
    state.state_reward = 0.0;
    state.label_mask = 0;
    state.transitions.clear();
    generator.expand(keys[s], state);

    if (!(state.state_reward >= 0.0) || !std::isfinite(state.state_reward)) {
      throw std::invalid_argument("explore: generator emitted a bad state reward");
    }
    if (props.size() < 32 && (state.label_mask >> props.size()) != 0) {
      throw std::invalid_argument("explore: label mask uses undeclared proposition bits");
    }
    rewards.push_back(state.state_reward);
    label_masks.push_back(state.label_mask);

    row.clear();
    for (const auto& tr : state.transitions) {
      if (!(tr.rate > 0.0) || !std::isfinite(tr.rate)) {
        throw std::invalid_argument("explore: generator emitted a non-positive rate");
      }
      if (tr.impulse < 0.0 || !std::isfinite(tr.impulse)) {
        throw std::invalid_argument("explore: generator emitted a bad impulse reward");
      }
      row.push_back({intern(tr.target), tr.rate, tr.impulse});
    }
    std::sort(row.begin(), row.end(),
              [](const RowEntry& a, const RowEntry& b) { return a.col < b.col; });
    // Merge duplicate targets by addition — the same semantics the triplet
    // builders apply, so generated and file-loaded models agree bitwise.
    for (std::size_t j = 0; j < row.size();) {
      double rate = row[j].rate;
      double impulse = row[j].impulse;
      std::size_t k = j + 1;
      while (k < row.size() && row[k].col == row[j].col) {
        rate += row[k].rate;
        impulse += row[k].impulse;
        ++k;
      }
      entries.push_back({row[j].col, rate});
      if (impulse > 0.0) impulse_entries.push_back({row[j].col, impulse});
      j = k;
    }
    row_ptr.push_back(entries.size());
    impulse_row_ptr.push_back(impulse_entries.size());
  }

  const std::size_t n = keys.size();
  obs::counter_add("generator.states", n);
  obs::counter_add("generator.transitions", entries.size());

  core::Labeling labels(n);
  for (const auto& ap : props) labels.declare(ap);
  for (core::StateIndex s = 0; s < n; ++s) {
    const std::uint32_t mask = label_masks[s];
    for (std::size_t bit = 0; bit < props.size(); ++bit) {
      if ((mask >> bit) & 1u) labels.add(s, props[bit]);
    }
  }

  core::RateMatrix rates(
      linalg::CsrMatrix(n, n, std::move(row_ptr), std::move(entries)));
  linalg::CsrMatrix impulses(n, n, std::move(impulse_row_ptr), std::move(impulse_entries));
  return core::Mrm(core::Ctmc(std::move(rates), std::move(labels)), std::move(rewards),
                   std::move(impulses));
}

namespace {

struct SpecParam {
  std::string key;
  std::string value;
};

/// Splits "family:key=value,key=value" (the parameter part is optional).
void parse_spec(const std::string& spec, std::string& family, std::vector<SpecParam>& params) {
  const std::size_t colon = spec.find(':');
  family = spec.substr(0, colon);
  if (family.empty()) {
    throw std::invalid_argument("model-gen: empty generator family in spec '" + spec + "'");
  }
  if (colon == std::string::npos) return;
  std::size_t pos = colon + 1;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
        throw std::invalid_argument("model-gen: expected key=value, got '" + item + "'");
      }
      params.push_back({item.substr(0, eq), item.substr(eq + 1)});
    }
    pos = comma + 1;
  }
}

double parse_double_param(const std::string& family, const SpecParam& param) {
  const char* begin = param.value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !std::isfinite(parsed)) {
    throw std::invalid_argument(family + ": bad numeric value for '" + param.key + "': '" +
                                param.value + "'");
  }
  return parsed;
}

std::size_t parse_size_param(const std::string& family, const SpecParam& param) {
  if (param.value.empty() || param.value[0] == '-') {
    throw std::invalid_argument(family + ": bad integer value for '" + param.key + "': '" +
                                param.value + "'");
  }
  const char* begin = param.value.c_str();
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(begin, &end, 10);
  if (end == begin || *end != '\0') {
    throw std::invalid_argument(family + ": bad integer value for '" + param.key + "': '" +
                                param.value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

[[noreturn]] void unknown_parameter(const std::string& family, const std::string& key,
                                    const std::string& available) {
  throw std::invalid_argument(family + ": unknown parameter '" + key +
                              "' (available: " + available + ")");
}

std::unique_ptr<StateGenerator> make_grid(const std::vector<SpecParam>& params) {
  GridNetworkConfig config;
  for (const auto& p : params) {
    if (p.key == "width") {
      config.width = parse_size_param("grid", p);
    } else if (p.key == "height") {
      config.height = parse_size_param("grid", p);
    } else if (p.key == "hop") {
      config.hop_rate = parse_double_param("grid", p);
    } else if (p.key == "drift") {
      config.drift_rate = parse_double_param("grid", p);
    } else if (p.key == "energy") {
      config.hop_energy = parse_double_param("grid", p);
    } else if (p.key == "power") {
      config.idle_power = parse_double_param("grid", p);
    } else {
      unknown_parameter("grid", p.key, "width, height, hop, drift, energy, power");
    }
  }
  return make_grid_network(config);
}

std::unique_ptr<StateGenerator> make_crowd(const std::vector<SpecParam>& params) {
  CrowdEpidemicConfig config;
  for (const auto& p : params) {
    if (p.key == "population") {
      config.population = parse_size_param("crowd", p);
    } else if (p.key == "contact") {
      config.contact_rate = parse_double_param("crowd", p);
    } else if (p.key == "recovery") {
      config.recovery_rate = parse_double_param("crowd", p);
    } else if (p.key == "treatment") {
      config.treatment_cost = parse_double_param("crowd", p);
    } else if (p.key == "outbreak") {
      config.outbreak_fraction = parse_double_param("crowd", p);
    } else {
      unknown_parameter("crowd", p.key, "population, contact, recovery, treatment, outbreak");
    }
  }
  return make_crowd_epidemic(config);
}

std::unique_ptr<StateGenerator> make_virus(const std::vector<SpecParam>& params) {
  VirusSpreadConfig config;
  for (const auto& p : params) {
    if (p.key == "hosts") {
      config.hosts = static_cast<unsigned>(parse_size_param("virus", p));
    } else if (p.key == "infect") {
      config.infect_rate = parse_double_param("virus", p);
    } else if (p.key == "recover") {
      config.recover_rate = parse_double_param("virus", p);
    } else if (p.key == "damage") {
      config.damage_cost = parse_double_param("virus", p);
    } else {
      unknown_parameter("virus", p.key, "hosts, infect, recover, damage");
    }
  }
  return make_virus_spread(config);
}

}  // namespace

std::unique_ptr<StateGenerator> make_generator(const std::string& spec) {
  std::string family;
  std::vector<SpecParam> params;
  parse_spec(spec, family, params);
  if (family == "grid") return make_grid(params);
  if (family == "crowd") return make_crowd(params);
  if (family == "virus") return make_virus(params);
  throw std::invalid_argument("unknown generator family '" + family +
                              "' (available: crowd, grid, virus)");
}

core::Mrm make_generated_mrm(const std::string& spec, const ExploreOptions& options) {
  return explore(*make_generator(spec), options);
}

}  // namespace csrlmrm::models
