#include "daemon/service.hpp"

#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checker/verdict.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "obs/stats.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm::daemon {

namespace {

char verdict_char(checker::Verdict verdict) {
  switch (verdict) {
    case checker::Verdict::kSat: return 'Y';
    case checker::Verdict::kUnsat: return 'N';
    case checker::Verdict::kUnknown: return '?';
  }
  return '?';
}

/// A parsed formula's reply from its plan execution result.
FormulaReply formula_reply(const logic::FormulaPtr& formula,
                           const plan::FormulaResult& result) {
  FormulaReply reply;
  reply.ok = true;
  reply.formula = logic::to_string(formula);
  reply.verdicts.reserve(result.verdicts.size());
  for (const checker::Verdict verdict : result.verdicts) {
    reply.verdicts.push_back(verdict_char(verdict));
  }
  if (result.has_probabilities) {
    reply.has_probabilities = true;
    reply.probabilities.reserve(result.probabilities.size());
    for (const auto& value : result.probabilities) {
      reply.probabilities.push_back(value.probability);
    }
  }
  if (result.has_values) {
    reply.has_values = true;
    reply.values = result.values;
  }
  if (result.has_bounds) {
    reply.has_bounds = true;
    reply.bound_lower.reserve(result.bounds.size());
    reply.bound_upper.reserve(result.bounds.size());
    for (const auto& bound : result.bounds) {
      reply.bound_lower.push_back(bound.lower);
      reply.bound_upper.push_back(bound.upper);
    }
  }
  return reply;
}

FormulaReply error_reply(const std::string& text, const std::string& error) {
  FormulaReply reply;
  reply.ok = false;
  reply.formula = text;
  reply.error = error;
  return reply;
}

}  // namespace

CheckService::CheckService(ModelRegistry& registry, ServiceOptions options)
    : registry_(registry), options_(std::move(options)) {
  dispatcher_ = std::thread([this] { run(); });
}

CheckService::~CheckService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  dispatcher_.join();
}

CheckReply CheckService::degraded_reply(const CheckRequest& request,
                                        const std::string& reason) {
  const auto resident = registry_.find(request.model);
  const std::size_t n = resident ? resident->model->num_states() : 0;
  CheckReply reply;
  reply.ok = true;
  reply.degraded = true;
  reply.error = reason;
  for (const std::string& text : request.formulas) {
    FormulaReply formula;
    formula.ok = true;
    formula.formula = text;
    formula.verdicts.assign(n, '?');
    formula.has_bounds = n > 0;
    formula.bound_lower.assign(n, 0.0);
    formula.bound_upper.assign(n, 1.0);
    reply.formulas.push_back(std::move(formula));
  }
  obs::counter_add("daemon.requests_degraded");
  return reply;
}

std::future<CheckReply> CheckService::submit(CheckRequest request) {
  obs::counter_add("daemon.requests");
  std::promise<CheckReply> promise;
  std::future<CheckReply> future = promise.get_future();
  bool shed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      CheckReply reply;
      reply.ok = false;
      reply.error = "service is shutting down";
      promise.set_value(std::move(reply));
      return future;
    }
    if (queue_.size() >= options_.max_queue) {
      shed = true;
    } else {
      queue_.push_back(
          Pending{std::move(request), std::move(promise), std::chrono::steady_clock::now()});
    }
  }
  if (shed) {
    // Answer on the caller's thread, outside the lock: degraded_reply takes
    // the registry lock and records stats.
    obs::counter_add("daemon.requests_shed");
    promise.set_value(degraded_reply(request, "request queue full"));
    return future;
  }
  work_available_.notify_one();
  return future;
}

void CheckService::run() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }

    // Group by (model, numeric overrides): each group compiles one plan.
    // std::map iteration keeps group order deterministic.
    std::map<std::string, std::vector<Pending>> groups;
    for (Pending& pending : batch) {
      groups[batch_key(pending.request)].push_back(std::move(pending));
    }
    for (auto& [key, group] : groups) serve_group(group);
  }
}

void CheckService::serve_group(std::vector<Pending>& group) {
  obs::counter_add("daemon.batches");
  obs::gauge_max("daemon.batch_size", static_cast<double>(group.size()));

  // Deadline admission: a request that waited past its budget is answered
  // degraded before any numeric work starts.
  std::vector<Pending> live;
  const auto now = std::chrono::steady_clock::now();
  for (Pending& pending : group) {
    const auto& deadline = pending.request.options.deadline_ms;
    const double waited_ms =
        std::chrono::duration<double, std::milli>(now - pending.enqueued).count();
    if (deadline && waited_ms > *deadline) {
      obs::counter_add("daemon.deadlines_expired");
      pending.promise.set_value(degraded_reply(pending.request, "deadline expired"));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  const auto fail_all = [&](const std::string& message) {
    for (Pending& pending : live) {
      CheckReply reply;
      reply.ok = false;
      reply.error = message;
      pending.promise.set_value(std::move(reply));
    }
  };

  const auto resident = registry_.find(live.front().request.model);
  if (!resident) {
    fail_all("model '" + live.front().request.model + "' is not resident; load it first");
    return;
  }

  checker::CheckerOptions options;
  try {
    options = apply_overrides(options_.checker, live.front().request.options);
  } catch (const std::exception& error) {
    fail_all(error.what());
    return;
  }

  const obs::StatsSnapshot base = obs::StatsRegistry::global().snapshot();

  // Unique formula texts across the whole group, in first-appearance order:
  // N clients asking the same formula share one root (and the plan compiler
  // dedups shared subformulas and solves beyond that).
  std::vector<std::string> texts;
  std::map<std::string, std::size_t> text_index;
  for (const Pending& pending : live) {
    for (const std::string& text : pending.request.formulas) {
      if (text_index.emplace(text, texts.size()).second) texts.push_back(text);
    }
  }

  // Per-formula error isolation: a formula that fails to parse, or fails at
  // solve time (an unsupported bound shape, say), fails alone.
  std::vector<FormulaReply> replies(texts.size());
  std::vector<logic::FormulaPtr> parsed(texts.size());  // null: parse error
  std::vector<logic::FormulaPtr> formulas;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    try {
      parsed[i] = logic::parse_formula(texts[i]);
      formulas.push_back(parsed[i]);
    } catch (const std::exception& error) {
      replies[i] = error_reply(texts[i], error.what());
      obs::counter_add("daemon.formula_errors");
    }
  }

  // One compilation and one execution for the whole group; the executor
  // records each formula's failure in its own result.
  plan::PlanResult results;
  if (!formulas.empty()) {
    results = plan::execute(plan::compile(*resident->model, formulas, options),
                            *resident->model, *resident->transforms);
  }
  std::size_t next = 0;  // results.formulas follows `formulas`
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (!parsed[i]) continue;
    const plan::FormulaResult& result = results.formulas[next++];
    if (result.error) {
      replies[i] = error_reply(texts[i], plan::failure_message(result.error));
      obs::counter_add("daemon.formula_errors");
    } else {
      replies[i] = formula_reply(parsed[i], result);
    }
  }

  const obs::StatsSnapshot delta = obs::StatsRegistry::global().delta_since(base);

  for (Pending& pending : live) {
    CheckReply reply;
    reply.ok = true;
    reply.batch_requests = live.size();
    reply.stats_delta = delta;
    for (const std::string& text : pending.request.formulas) {
      reply.formulas.push_back(replies[text_index[text]]);
    }
    obs::counter_add("daemon.requests_served");
    pending.promise.set_value(std::move(reply));
  }
}

}  // namespace csrlmrm::daemon
