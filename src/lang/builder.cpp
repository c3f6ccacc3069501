#include "lang/builder.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "lang/parser.hpp"
#include "core/approx.hpp"

namespace csrlmrm::lang {

namespace {

/// Environment over resolved constants plus one variable valuation.
class StateEnvironment final : public Environment {
 public:
  StateEnvironment(const std::map<std::string, Value>& constants,
                   const std::vector<std::string>& variable_names)
      : constants_(&constants), variable_names_(&variable_names) {}

  void bind(const std::vector<long>* valuation) { valuation_ = valuation; }

  Value lookup(const std::string& name) const override {
    for (std::size_t i = 0; i < variable_names_->size(); ++i) {
      if ((*variable_names_)[i] == name) {
        return Value::make_number(static_cast<double>((*valuation_)[i]));
      }
    }
    const auto it = constants_->find(name);
    if (it != constants_->end()) return it->second;
    throw SpecError("unknown identifier '" + name + "'");
  }

 private:
  const std::map<std::string, Value>* constants_;
  const std::vector<std::string>* variable_names_;
  const std::vector<long>* valuation_ = nullptr;
};

long require_integral(double value, const std::string& context) {
  const double rounded = std::round(value);
  if (std::abs(value - rounded) > 1e-9 || !std::isfinite(value)) {
    throw SpecError(context + " must be an integer, got " + std::to_string(value));
  }
  return static_cast<long>(rounded);
}

struct ValuationHash {
  std::size_t operator()(const std::vector<long>& v) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (long x : v) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  }
};

const std::vector<std::string> kNoVariables;

}  // namespace

core::StateIndex BuiltModel::state_of(const std::vector<long>& valuation) const {
  for (std::size_t s = 0; s < valuations.size(); ++s) {
    if (valuations[s] == valuation) return s;
  }
  return valuations.size();
}

BuiltModel build_model(const ModelSpec& spec, const BuildOptions& options) {
  // Resolve constants in declaration order (later ones may use earlier ones).
  std::map<std::string, Value> constants;
  {
    StateEnvironment env(constants, kNoVariables);
    env.bind(nullptr);
    for (const auto& constant : spec.constants) {
      Value value = evaluate(constant.value, env);
      if (constant.is_integer) {
        value = Value::make_number(static_cast<double>(
            require_integral(value.number, "constant '" + constant.name + "'")));
      }
      if (constants.count(constant.name)) {
        throw SpecError("constant '" + constant.name + "' declared twice");
      }
      constants.emplace(constant.name, value);
    }
  }

  BuiltModel built;
  for (const auto& variable : spec.variables) built.variable_names.push_back(variable.name);

  // Variable ranges and the initial valuation.
  std::vector<long> lower(spec.variables.size(), 0);
  std::vector<long> upper(spec.variables.size(), 0);
  std::vector<long> initial(spec.variables.size(), 0);
  {
    StateEnvironment env(constants, kNoVariables);
    env.bind(nullptr);
    for (std::size_t i = 0; i < spec.variables.size(); ++i) {
      const auto& variable = spec.variables[i];
      lower[i] = require_integral(evaluate_number(variable.lower, env),
                                  "lower bound of '" + variable.name + "'");
      upper[i] = require_integral(evaluate_number(variable.upper, env),
                                  "upper bound of '" + variable.name + "'");
      if (lower[i] > upper[i]) {
        throw SpecError("empty range for variable '" + variable.name + "'");
      }
      initial[i] = variable.init ? require_integral(evaluate_number(variable.init, env),
                                                    "init of '" + variable.name + "'")
                                 : lower[i];
      if (initial[i] < lower[i] || initial[i] > upper[i]) {
        throw SpecError("init of '" + variable.name + "' outside its range");
      }
    }
  }

  // Breadth-first exploration of the reachable valuations.
  StateEnvironment env(constants, built.variable_names);
  std::unordered_map<std::vector<long>, core::StateIndex, ValuationHash> index_of;
  struct Transition {
    core::StateIndex from;
    core::StateIndex to;
    double rate;
    double impulse;
  };
  std::vector<Transition> transitions;

  const auto intern = [&](const std::vector<long>& valuation) {
    const auto [it, inserted] = index_of.try_emplace(valuation, built.valuations.size());
    if (inserted) {
      built.valuations.push_back(valuation);
      if (built.valuations.size() > options.max_states) {
        throw SpecError("state space exceeds the limit of " +
                        std::to_string(options.max_states) + " states");
      }
    }
    return it->second;
  };
  intern(initial);

  for (core::StateIndex s = 0; s < built.valuations.size(); ++s) {
    // NB: built.valuations grows inside the loop (BFS worklist).
    for (const auto& command : spec.commands) {
      const std::vector<long> current = built.valuations[s];  // copy: vector may reallocate
      env.bind(&current);
      if (!evaluate_bool(command.guard, env)) continue;
      const double rate = evaluate_number(command.rate, env);
      if (rate < 0.0) throw SpecError("negative rate in a command");
      if (core::exactly_zero(rate)) continue;

      std::vector<long> next = current;
      std::vector<bool> assigned(next.size(), false);
      for (const auto& update : command.updates) {
        std::size_t variable_index = next.size();
        for (std::size_t i = 0; i < built.variable_names.size(); ++i) {
          if (built.variable_names[i] == update.variable) variable_index = i;
        }
        if (variable_index == next.size()) {
          throw SpecError("update assigns unknown variable '" + update.variable + "'");
        }
        if (assigned[variable_index]) {
          throw SpecError("command assigns variable '" + update.variable + "' twice");
        }
        assigned[variable_index] = true;
        const long value = require_integral(evaluate_number(update.value, env),
                                            "update of '" + update.variable + "'");
        if (value < lower[variable_index] || value > upper[variable_index]) {
          throw SpecError("update drives '" + update.variable + "' to " +
                          std::to_string(value) + ", outside its declared range");
        }
        next[variable_index] = value;
      }

      const double impulse = command.impulse ? evaluate_number(command.impulse, env) : 0.0;
      if (impulse < 0.0) throw SpecError("negative impulse reward in a command");
      const core::StateIndex target = intern(next);
      if (impulse > 0.0 && target == s) {
        throw SpecError(
            "impulse reward on a self-loop (Definition 3.1 requires iota(s,s) = 0)");
      }
      transitions.push_back({s, target, rate, impulse});
    }
  }

  const std::size_t n = built.valuations.size();

  // Aggregate transitions per ordered pair; impulses must be consistent.
  std::map<std::pair<core::StateIndex, core::StateIndex>, std::pair<double, double>> merged;
  for (const auto& transition : transitions) {
    auto [it, inserted] = merged.try_emplace(
        std::pair{transition.from, transition.to},
        std::pair{transition.rate, transition.impulse});
    if (!inserted) {
      if (it->second.second != transition.impulse) {
        throw SpecError(
            "two commands generate the same transition with different impulse rewards");
      }
      it->second.first += transition.rate;
    }
  }

  core::RateMatrixBuilder rates(n);
  core::ImpulseRewardsBuilder impulses(n);
  for (const auto& [pair, rate_impulse] : merged) {
    rates.add(pair.first, pair.second, rate_impulse.first);
    if (rate_impulse.second > 0.0) {
      impulses.add(pair.first, pair.second, rate_impulse.second);
    }
  }

  // State rewards: sum of the rates of all clauses whose guard holds.
  std::vector<double> rewards(n, 0.0);
  for (core::StateIndex s = 0; s < n; ++s) {
    env.bind(&built.valuations[s]);
    for (const auto& clause : spec.state_rewards) {
      if (evaluate_bool(clause.guard, env)) {
        const double rate = evaluate_number(clause.rate, env);
        if (rate < 0.0) throw SpecError("negative state reward");
        rewards[s] += rate;
      }
    }
  }

  // Labels.
  core::Labeling labels(n);
  for (const auto& label : spec.labels) labels.declare(label.name);
  for (core::StateIndex s = 0; s < n; ++s) {
    env.bind(&built.valuations[s]);
    for (const auto& label : spec.labels) {
      if (evaluate_bool(label.condition, env)) labels.add(s, label.name);
    }
  }

  built.model.emplace(core::Ctmc(rates.build(), std::move(labels)), std::move(rewards),
                      impulses.build());
  built.initial_state = 0;
  return built;
}

BuiltModel build_model_from_text(const std::string& text, const BuildOptions& options) {
  return build_model(parse_spec(text), options);
}

BuiltModel build_model_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return build_model_from_text(buffer.str());
}

}  // namespace csrlmrm::lang
