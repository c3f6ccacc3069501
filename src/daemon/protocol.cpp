#include "daemon/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace csrlmrm::daemon {

namespace {

using obs::JsonValue;

/// JSON has no number for +-infinity or NaN, so they travel as the strings
/// "Infinity", "-Infinity" and "NaN".
JsonValue doubles_to_json(const std::vector<double>& values) {
  JsonValue array = JsonValue::array();
  for (const double v : values) {
    array.push_back(std::isfinite(v) ? JsonValue(v)
                    : std::isnan(v)  ? JsonValue(std::string("NaN"))
                                     : JsonValue(std::string(v > 0.0 ? "Infinity" : "-Infinity")));
  }
  return array;
}

std::vector<double> doubles_from_json(const JsonValue& value) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  out.reserve(value.items().size());
  for (const JsonValue& item : value.items()) {
    const std::string_view text = item.is_string() ? item.as_string() : std::string_view();
    out.push_back(text == "NaN"         ? std::numeric_limits<double>::quiet_NaN()
                  : text == "Infinity"  ? kInf
                  : text == "-Infinity" ? -kInf
                                        : item.as_number());
  }
  return out;
}

/// Reads an optional member with a type check; absent or null means unset.
const JsonValue* optional_member(const JsonValue& object, std::string_view key) {
  const JsonValue* member = object.find(key);
  if (member == nullptr || member->is_null()) return nullptr;
  return member;
}

std::size_t as_size(const JsonValue& value, const char* what) {
  const double n = value.as_number();
  if (!(n >= 1.0) || !std::isfinite(n)) {
    throw std::invalid_argument(std::string(what) + " must be a positive integer");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

checker::CheckerOptions apply_overrides(checker::CheckerOptions base,
                                        const CheckOverrides& overrides) {
  if (overrides.w) {
    if (!(*overrides.w > 0.0) || !std::isfinite(*overrides.w)) {
      throw std::invalid_argument("check option 'w' must be a positive number");
    }
    base.until_method = checker::UntilMethod::kUniformization;
    base.uniformization.truncation_probability = *overrides.w;
  }
  if (overrides.max_nodes) {
    if (*overrides.max_nodes == 0) {
      throw std::invalid_argument("check option 'max_nodes' must be positive");
    }
    base.uniformization.max_nodes = *overrides.max_nodes;
  }
  if (overrides.fallback) {
    const std::string& policy = *overrides.fallback;
    if (policy == "throw") {
      base.on_budget_exhausted = checker::BudgetPolicy::kThrow;
    } else if (policy == "discretize") {
      base.on_budget_exhausted = checker::BudgetPolicy::kFallbackToDiscretization;
    } else {
      throw std::invalid_argument("unknown fallback '" + policy + "'");
    }
  }
  return base;
}

std::string batch_key(const CheckRequest& request) {
  std::string key = request.model;
  key += '\x1f';
  if (request.options.w) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "w=%.17g", *request.options.w);
    key += buffer;
  }
  key += '\x1f';
  if (request.options.max_nodes) key += "n=" + std::to_string(*request.options.max_nodes);
  key += '\x1f';
  if (request.options.fallback) key += *request.options.fallback;
  return key;
}

JsonValue check_request_to_json(const CheckRequest& request) {
  JsonValue object = JsonValue::object();
  object.set("op", JsonValue(std::string("check")));
  object.set("model", JsonValue(request.model));
  JsonValue formulas = JsonValue::array();
  for (const std::string& text : request.formulas) formulas.push_back(JsonValue(text));
  object.set("formulas", std::move(formulas));
  JsonValue options = JsonValue::object();
  if (request.options.w) options.set("w", JsonValue(*request.options.w));
  if (request.options.max_nodes) {
    options.set("max_nodes", JsonValue(static_cast<double>(*request.options.max_nodes)));
  }
  if (request.options.deadline_ms) {
    options.set("deadline_ms", JsonValue(*request.options.deadline_ms));
  }
  if (request.options.fallback) options.set("fallback", JsonValue(*request.options.fallback));
  if (!options.members().empty()) object.set("options", std::move(options));
  return object;
}

CheckRequest check_request_from_json(const JsonValue& value) {
  if (!value.is_object()) throw std::invalid_argument("check request must be an object");
  CheckRequest request;
  const JsonValue* model = optional_member(value, "model");
  if (model == nullptr) throw std::invalid_argument("check request needs a 'model' key");
  request.model = model->as_string();
  const JsonValue* formulas = optional_member(value, "formulas");
  if (formulas == nullptr || !formulas->is_array() || formulas->items().empty()) {
    throw std::invalid_argument("check request needs a non-empty 'formulas' array");
  }
  for (const JsonValue& item : formulas->items()) request.formulas.push_back(item.as_string());
  if (const JsonValue* options = optional_member(value, "options")) {
    if (!options->is_object()) throw std::invalid_argument("'options' must be an object");
    for (const auto& [key, member] : options->members()) {
      if (key != "w" && key != "max_nodes" && key != "deadline_ms" && key != "fallback") {
        throw std::invalid_argument("unknown check option '" + key +
                                    "' (expected w, max_nodes, deadline_ms or fallback)");
      }
    }
    if (const JsonValue* w = optional_member(*options, "w")) request.options.w = w->as_number();
    if (const JsonValue* nodes = optional_member(*options, "max_nodes")) {
      request.options.max_nodes = as_size(*nodes, "max_nodes");
    }
    if (const JsonValue* deadline = optional_member(*options, "deadline_ms")) {
      request.options.deadline_ms = deadline->as_number();
    }
    if (const JsonValue* fallback = optional_member(*options, "fallback")) {
      request.options.fallback = fallback->as_string();
    }
  }
  return request;
}

JsonValue check_reply_to_json(const CheckReply& reply) {
  JsonValue object = JsonValue::object();
  object.set("ok", JsonValue(reply.ok));
  if (!reply.error.empty()) object.set("error", JsonValue(reply.error));
  object.set("degraded", JsonValue(reply.degraded));
  object.set("batch_requests", JsonValue(static_cast<double>(reply.batch_requests)));
  JsonValue formulas = JsonValue::array();
  for (const FormulaReply& formula : reply.formulas) {
    JsonValue entry = JsonValue::object();
    entry.set("ok", JsonValue(formula.ok));
    entry.set("formula", JsonValue(formula.formula));
    if (!formula.error.empty()) entry.set("error", JsonValue(formula.error));
    if (!formula.verdicts.empty()) entry.set("verdicts", JsonValue(formula.verdicts));
    if (formula.has_probabilities) {
      entry.set("probabilities", doubles_to_json(formula.probabilities));
    }
    if (formula.has_values) entry.set("values", doubles_to_json(formula.values));
    if (formula.has_bounds) {
      entry.set("bound_lower", doubles_to_json(formula.bound_lower));
      entry.set("bound_upper", doubles_to_json(formula.bound_upper));
    }
    formulas.push_back(std::move(entry));
  }
  object.set("formulas", std::move(formulas));
  object.set("stats", obs::snapshot_to_json(reply.stats_delta));
  return object;
}

CheckReply check_reply_from_json(const JsonValue& value) {
  CheckReply reply;
  reply.ok = value.at("ok").as_bool();
  if (const JsonValue* error = optional_member(value, "error")) reply.error = error->as_string();
  if (const JsonValue* degraded = optional_member(value, "degraded")) {
    reply.degraded = degraded->as_bool();
  }
  if (const JsonValue* batch = optional_member(value, "batch_requests")) {
    reply.batch_requests = static_cast<std::size_t>(batch->as_number());
  }
  if (const JsonValue* formulas = optional_member(value, "formulas")) {
    for (const JsonValue& entry : formulas->items()) {
      FormulaReply formula;
      formula.ok = entry.at("ok").as_bool();
      formula.formula = entry.at("formula").as_string();
      if (const JsonValue* error = optional_member(entry, "error")) {
        formula.error = error->as_string();
      }
      if (const JsonValue* verdicts = optional_member(entry, "verdicts")) {
        formula.verdicts = verdicts->as_string();
      }
      if (const JsonValue* probabilities = optional_member(entry, "probabilities")) {
        formula.has_probabilities = true;
        formula.probabilities = doubles_from_json(*probabilities);
      }
      if (const JsonValue* values = optional_member(entry, "values")) {
        formula.has_values = true;
        formula.values = doubles_from_json(*values);
      }
      if (const JsonValue* lower = optional_member(entry, "bound_lower")) {
        formula.has_bounds = true;
        formula.bound_lower = doubles_from_json(*lower);
        formula.bound_upper = doubles_from_json(entry.at("bound_upper"));
      }
      reply.formulas.push_back(std::move(formula));
    }
  }
  if (const JsonValue* stats = optional_member(value, "stats")) {
    if (const JsonValue* counters = optional_member(*stats, "counters")) {
      for (const auto& [name, counter] : counters->members()) {
        reply.stats_delta.counters.emplace(
            name, static_cast<std::uint64_t>(counter.as_number()));
      }
    }
    if (const JsonValue* gauges = optional_member(*stats, "gauges")) {
      for (const auto& [name, gauge] : gauges->members()) {
        reply.stats_delta.gauges.emplace(name, gauge.as_number());
      }
    }
  }
  return reply;
}

std::string frame(const JsonValue& value) {
  std::string line = obs::write_json_compact(value);
  line += '\n';
  return line;
}

}  // namespace csrlmrm::daemon
