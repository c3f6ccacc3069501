// The checking core of mrmcheckd: a bounded request queue in front of one
// dispatcher thread that batches same-model requests into shared plan
// executions.
//
// Why batching preserves correctness: a batched plan's answers are
// differential-tested bitwise-identical to one CSE-off plan per formula with
// a fresh transform cache, at any batch composition and thread count
// (tests/test_plan_differential.cpp), and ModelChecker runs the same
// pipeline on one-root plans. So combining N clients' formulas into one
// compiled plan — deduplicating shared solves across *clients*, not just
// within one request, and drawing transforms from the resident model's
// cache — returns exactly the answers each client would have gotten alone.
// The group is compiled and executed once: a formula that fails to parse,
// or fails at solve time (plan/executor.hpp records each formula's
// failure), gets ok=false with its own error while the others are answered.
//
// Admission control, in order:
//   1. Queue bound: submit() on a full queue resolves the future immediately
//      with a degraded reply (all states '?', enclosure [0,1]) instead of
//      blocking the connection thread — overload sheds load as honest
//      UNKNOWNs, it never stalls.
//   2. Deadline: a request whose deadline_ms elapsed while queued is
//      answered degraded at dispatch time, before any numeric work. A
//      deadline_ms that is not positive is an invalid option: submit()
//      answers it with a request-level error, as it does w <= 0.
//   3. Node budget: per-request max_nodes/w overrides ride the existing
//      checker::BudgetPolicy degradation (discretize fallback), so a
//      too-expensive query inside its deadline still returns a wider
//      enclosure rather than running unbounded.
//
// Execution is serial across batches on the dispatcher thread (the numeric
// work inside parallelizes through the process thread pool); stats recorded
// while a batch runs are attached to each of its requests as a snapshot
// delta (obs::StatsSnapshot), not process-lifetime totals.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "checker/options.hpp"
#include "daemon/model_registry.hpp"
#include "daemon/protocol.hpp"

namespace csrlmrm::daemon {

struct ServiceOptions {
  /// Pending requests admitted before submit() answers degraded.
  std::size_t max_queue = 64;
  /// Base CheckerOptions; per-request overrides apply on top.
  checker::CheckerOptions checker;
};

class CheckService {
 public:
  explicit CheckService(ModelRegistry& registry, ServiceOptions options = {});
  /// Drains the queue (every admitted request is answered) and joins the
  /// dispatcher.
  ~CheckService();

  CheckService(const CheckService&) = delete;
  CheckService& operator=(const CheckService&) = delete;

  /// Admits one request. The future always resolves: with results, with a
  /// degraded reply (overload/deadline), or with a request-level error
  /// (unknown model, invalid options). Never throws on overload.
  std::future<CheckReply> submit(CheckRequest request);

 private:
  struct Pending {
    CheckRequest request;
    std::promise<CheckReply> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void run();
  /// All-'?' reply sized to the request's model (state count 0 when the
  /// model is not resident — the verdict string is then empty but the reply
  /// still carries ok/degraded and the reason).
  CheckReply degraded_reply(const CheckRequest& request, const std::string& reason);
  void serve_group(std::vector<Pending>& group);

  ModelRegistry& registry_;
  ServiceOptions options_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Pending> queue_;  // lint:guarded_by(mutex_)
  bool stopping_ = false;      // lint:guarded_by(mutex_)
  std::thread dispatcher_;
};

}  // namespace csrlmrm::daemon
