// The mrmcheckd subsystem: protocol round trips, the resident-model
// registry, the batching check service (including its admission-control
// degradation paths), the socket server, and the concurrent soak test
// pinning daemon results bitwise-identical to cold direct checks.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/sat.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "daemon/client.hpp"
#include "io/model_files.hpp"
#include "daemon/model_registry.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "daemon/service.hpp"
#include "logic/parser.hpp"
#include "oracle/cellphone.hpp"
#include "models/generator.hpp"
#include "models/mm1k.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace {

using namespace csrlmrm;

// ---------------------------------------------------------------- protocol

TEST(DaemonProtocol, CheckRequestRoundTrips) {
  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]", "S(<0.9) allUp"};
  request.options.w = 1e-6;
  request.options.max_nodes = 1000;
  request.options.deadline_ms = 250.0;
  request.options.fallback = "discretize";

  const daemon::CheckRequest back =
      daemon::check_request_from_json(daemon::check_request_to_json(request));
  EXPECT_EQ(back.model, request.model);
  EXPECT_EQ(back.formulas, request.formulas);
  ASSERT_TRUE(back.options.w.has_value());
  EXPECT_TRUE(core::exactly_equal(*back.options.w, 1e-6));
  EXPECT_EQ(back.options.max_nodes, request.options.max_nodes);
  EXPECT_EQ(back.options.fallback, request.options.fallback);
}

TEST(DaemonProtocol, CheckReplyRoundTripsBitwise) {
  daemon::CheckReply reply;
  reply.ok = true;
  reply.batch_requests = 3;
  daemon::FormulaReply formula;
  formula.ok = true;
  formula.formula = "P(> 0.1) [a U b]";
  formula.verdicts = "YN?";
  formula.has_probabilities = true;
  formula.probabilities = {0.010198025684297257, 1.0 / 3.0, 1.0};
  formula.has_bounds = true;
  formula.bound_lower = {0.0, 0.3, 1.0};
  formula.bound_upper = {0.25, 0.5, 1.0};
  reply.formulas.push_back(formula);
  // JSON has no number for +-infinity or NaN; an R[F] answer of +infinity
  // (target unreachable) must survive the wire all the same.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  daemon::FormulaReply non_finite;
  non_finite.ok = true;
  non_finite.formula = "R(< 50) [F outbreak]";
  non_finite.verdicts = "YN?";
  non_finite.has_values = true;
  non_finite.values = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
  non_finite.has_bounds = true;
  non_finite.bound_lower = {2.5, -kInf, std::numeric_limits<double>::quiet_NaN()};
  non_finite.bound_upper = {kInf, 0.0, kInf};
  reply.formulas.push_back(non_finite);
  reply.stats_delta.counters["daemon.requests"] = 7;

  // Through the actual wire representation: compact JSON text and back.
  const std::string line = daemon::frame(daemon::check_reply_to_json(reply));
  const daemon::CheckReply back = daemon::check_reply_from_json(obs::parse_json(line));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.batch_requests, 3u);
  ASSERT_EQ(back.formulas.size(), 2u);
  EXPECT_EQ(back.formulas[0].verdicts, "YN?");
  ASSERT_EQ(back.formulas[0].probabilities.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // %.17g framing must round-trip doubles bitwise.
    EXPECT_TRUE(core::exactly_equal(back.formulas[0].probabilities[i],
                                    formula.probabilities[i]));
  }
  const auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(back.formulas[1].has_values);
  EXPECT_TRUE(same_bits(back.formulas[1].values, non_finite.values));
  EXPECT_TRUE(same_bits(back.formulas[1].bound_lower, non_finite.bound_lower));
  EXPECT_TRUE(same_bits(back.formulas[1].bound_upper, non_finite.bound_upper));
  EXPECT_EQ(back.stats_delta.counters.at("daemon.requests"), 7u);
}

TEST(DaemonProtocol, ApplyOverridesRejectsBadNames) {
  checker::CheckerOptions base;
  daemon::CheckOverrides overrides;
  overrides.fallback = "ignore";
  EXPECT_THROW(daemon::apply_overrides(base, overrides), std::invalid_argument);
  overrides.fallback = "widen-w";  // there is no widening policy
  EXPECT_THROW(daemon::apply_overrides(base, overrides), std::invalid_argument);
  overrides.fallback.reset();
  overrides.w = -1.0;
  EXPECT_THROW(daemon::apply_overrides(base, overrides), std::invalid_argument);
}

TEST(DaemonProtocol, UnknownCheckOptionIsRejectedByName) {
  // A typo, or an option the protocol does not have, must not run silently
  // with the base options: the request fails and the error names the key.
  for (const char* key : {"max_node", "until_engine"}) {
    obs::JsonValue options = obs::JsonValue::object();
    options.set(key, obs::JsonValue(std::string("classdp")));
    obs::JsonValue formulas = obs::JsonValue::array();
    formulas.push_back(obs::JsonValue(std::string("TT")));
    obs::JsonValue request = obs::JsonValue::object();
    request.set("op", obs::JsonValue(std::string("check")));
    request.set("model", obs::JsonValue(std::string("tmr")));
    request.set("formulas", std::move(formulas));
    request.set("options", std::move(options));
    try {
      daemon::check_request_from_json(request);
      ADD_FAILURE() << "options key '" << key << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(DaemonProtocol, BatchKeySeparatesNumericOptionsOnly) {
  daemon::CheckRequest a;
  a.model = "tmr";
  daemon::CheckRequest b = a;
  // Deadline is admission control, never numeric: same key.
  b.options.deadline_ms = 5.0;
  EXPECT_EQ(daemon::batch_key(a), daemon::batch_key(b));
  b.options.w = 1e-6;
  EXPECT_NE(daemon::batch_key(a), daemon::batch_key(b));
}

// ---------------------------------------------------------------- registry

TEST(ModelRegistry, FingerprintIsContentBased) {
  const std::string fp_tmr = daemon::fingerprint_mrm(models::make_tmr());
  EXPECT_EQ(fp_tmr.size(), 16u);
  EXPECT_EQ(fp_tmr, daemon::fingerprint_mrm(models::make_tmr()));
  EXPECT_NE(fp_tmr, daemon::fingerprint_mrm(models::make_cellphone()));
}

TEST(ModelRegistry, AddIsIdempotentAndKeepsWarmCaches) {
  daemon::ModelRegistry registry;
  const auto first = registry.add(models::make_tmr(), "tmr");
  // Warm the transform cache through the resident handle.
  const std::vector<bool> mask(first->model->num_states(), false);
  first->transforms->absorbing(mask);
  const std::size_t warm = first->transforms->size();
  EXPECT_EQ(warm, 1u);

  const auto second = registry.add(models::make_tmr(), "tmr-again");
  EXPECT_EQ(first.get(), second.get());  // same resident entry, caches kept
  EXPECT_EQ(second->transforms->size(), warm);
  EXPECT_EQ(registry.size(), 1u);
  // Both aliases and the fingerprint resolve.
  EXPECT_NE(registry.find("tmr-again"), nullptr);
  EXPECT_NE(registry.find(first->fingerprint), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(ModelRegistry, EvictsLeastRecentlyUsedAtCapacity) {
  daemon::ModelRegistry registry(2);
  registry.add(models::make_tmr(), "tmr");
  registry.add(models::make_cellphone(), "cell");
  ASSERT_NE(registry.find("tmr"), nullptr);  // refresh tmr: cell becomes LRU
  registry.add(models::make_mm1k(), "queue");
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.find("cell"), nullptr);
  EXPECT_NE(registry.find("tmr"), nullptr);
  EXPECT_NE(registry.find("queue"), nullptr);
}

// ----------------------------------------------------------------- service

/// Direct (daemon-free) reference results for one model/formula pair, the
/// way a cold mrmcheck process would compute them.
plan::FormulaResult direct_result(const core::Mrm& model, const std::string& text) {
  const auto formula = logic::parse_formula(text);
  const plan::Plan compiled = plan::compile(model, {formula}, checker::CheckerOptions{});
  core::TransformCache transforms(model);
  plan::PlanResult result = plan::execute(compiled, model, transforms);
  return std::move(result.formulas[0]);
}

/// Bitwise comparison of a daemon reply against a direct result; returns
/// false on ANY difference. gtest assertions are not thread-safe, so the
/// soak's client threads use this and assert after joining.
bool bitwise_matches(const daemon::FormulaReply& reply,
                     const plan::FormulaResult& expected) {
  if (!reply.ok) return false;
  if (reply.verdicts.size() != expected.verdicts.size()) return false;
  for (std::size_t s = 0; s < expected.verdicts.size(); ++s) {
    const char want = expected.verdicts[s] == checker::Verdict::kSat      ? 'Y'
                      : expected.verdicts[s] == checker::Verdict::kUnsat ? 'N'
                                                                         : '?';
    if (reply.verdicts[s] != want) return false;
  }
  if (reply.has_probabilities != expected.has_probabilities) return false;
  if (expected.has_probabilities) {
    if (reply.probabilities.size() != expected.probabilities.size()) return false;
    for (std::size_t s = 0; s < expected.probabilities.size(); ++s) {
      if (!core::exactly_equal(reply.probabilities[s],
                               expected.probabilities[s].probability)) {
        return false;
      }
    }
  }
  if (reply.has_values != expected.has_values) return false;
  if (expected.has_values) {
    if (reply.values.size() != expected.values.size()) return false;
    for (std::size_t s = 0; s < expected.values.size(); ++s) {
      if (!core::exactly_equal(reply.values[s], expected.values[s])) return false;
    }
  }
  if (expected.has_bounds) {
    if (!reply.has_bounds || reply.bound_lower.size() != expected.bounds.size()) return false;
    for (std::size_t s = 0; s < expected.bounds.size(); ++s) {
      if (!core::exactly_equal(reply.bound_lower[s], expected.bounds[s].lower) ||
          !core::exactly_equal(reply.bound_upper[s], expected.bounds[s].upper)) {
        return false;
      }
    }
  }
  return true;
}

void expect_matches_direct(const daemon::FormulaReply& reply,
                           const plan::FormulaResult& expected) {
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.verdicts.size(), expected.verdicts.size());
  for (std::size_t s = 0; s < expected.verdicts.size(); ++s) {
    const char want = expected.verdicts[s] == checker::Verdict::kSat      ? 'Y'
                      : expected.verdicts[s] == checker::Verdict::kUnsat ? 'N'
                                                                         : '?';
    EXPECT_EQ(reply.verdicts[s], want) << "state " << s;
  }
  EXPECT_EQ(reply.has_probabilities, expected.has_probabilities);
  if (expected.has_probabilities) {
    ASSERT_EQ(reply.probabilities.size(), expected.probabilities.size());
    for (std::size_t s = 0; s < expected.probabilities.size(); ++s) {
      EXPECT_TRUE(core::exactly_equal(reply.probabilities[s],
                                      expected.probabilities[s].probability))
          << "state " << s;
    }
  }
  if (expected.has_values) {
    ASSERT_EQ(reply.values.size(), expected.values.size());
    for (std::size_t s = 0; s < expected.values.size(); ++s) {
      EXPECT_TRUE(core::exactly_equal(reply.values[s], expected.values[s])) << "state " << s;
    }
  }
}

TEST(CheckService, AnswersBitwiseIdenticalToDirectCheck) {
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);

  const std::string text = "P(>0.1)[Sup U[0,10][0,300] failed]";
  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {text};
  const daemon::CheckReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_FALSE(reply.degraded);
  ASSERT_EQ(reply.formulas.size(), 1u);
  expect_matches_direct(reply.formulas[0], direct_result(models::make_tmr(), text));
}

TEST(CheckService, RepeatQueriesHitTheResidentTransformCache) {
  daemon::ModelRegistry registry;
  const auto resident = registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]"};
  ASSERT_TRUE(service.submit(request).get().ok);
  const std::size_t hits_after_first = resident->transforms->hits();
  ASSERT_TRUE(service.submit(request).get().ok);
  // The second request's transform comes from the warm per-model cache.
  EXPECT_GT(resident->transforms->hits(), hits_after_first);
}

TEST(CheckService, UnknownModelFailsTheRequest) {
  daemon::ModelRegistry registry;
  daemon::CheckService service(registry);
  daemon::CheckRequest request;
  request.model = "ghost";
  request.formulas = {"TT"};
  const daemon::CheckReply reply = service.submit(request).get();
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("ghost"), std::string::npos);
}

TEST(CheckService, MalformedFormulaFailsAloneInABatch) {
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"S(<0.9) allUp", "THIS IS (not a formula", "TT"};
  const daemon::CheckReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.formulas.size(), 3u);
  EXPECT_TRUE(reply.formulas[0].ok);
  EXPECT_FALSE(reply.formulas[1].ok);
  EXPECT_FALSE(reply.formulas[1].error.empty());
  EXPECT_TRUE(reply.formulas[2].ok);
  EXPECT_EQ(reply.formulas[2].verdicts, std::string(5, 'Y'));
}

/// The message a direct ModelChecker call on `text` throws.
std::string solo_error(const core::Mrm& model, const std::string& text) {
  checker::ModelChecker checker(model);
  try {
    checker.verdicts(logic::parse_formula(text));
  } catch (const std::exception& error) {
    return error.what();
  }
  return {};
}

TEST(CheckService, SolveTimeFailureFailsAloneInABatch) {
  // Formula 2's bound shape is outside thesis sections 4.5/4.6, and formula
  // 4's point time interval breaks Theorem 4.2's Psi => Phi on tmr. Both
  // fail only once the plan runs; the batch still answers 1 and 3 from the
  // same execution, bitwise as a direct check.
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,50][0,3000] failed]", "P(>0.1)[Sup U[1,2][0,5] failed]",
                      "S(<0.9) allUp", "P(>0.5)[Sup U[2,2][0,5] failed]"};
  const daemon::CheckReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.formulas.size(), 4u);
  const core::Mrm model = models::make_tmr();
  for (const std::size_t good : {0u, 2u}) {
    SCOPED_TRACE(request.formulas[good]);
    expect_matches_direct(reply.formulas[good], direct_result(model, request.formulas[good]));
  }
  for (const std::size_t bad : {1u, 3u}) {
    SCOPED_TRACE(request.formulas[bad]);
    EXPECT_FALSE(reply.formulas[bad].ok);
    const std::string expected = solo_error(model, request.formulas[bad]);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(reply.formulas[bad].error, expected);
    EXPECT_TRUE(reply.formulas[bad].verdicts.empty());
  }
  EXPECT_NE(reply.formulas[1].error, reply.formulas[3].error);
}

TEST(CheckService, ExpiredDeadlineDegradesToUnknownWithInterval) {
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]"};
  // The smallest positive deadline: expired once any time at all passes
  // between submission and dispatch, which the hand-off to the dispatcher
  // thread always takes.
  request.options.deadline_ms = std::numeric_limits<double>::denorm_min();
  const daemon::CheckReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(reply.degraded);
  ASSERT_EQ(reply.formulas.size(), 1u);
  EXPECT_EQ(reply.formulas[0].verdicts, std::string(5, '?'));
  ASSERT_TRUE(reply.formulas[0].has_bounds);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_TRUE(core::exactly_equal(reply.formulas[0].bound_lower[s], 0.0));
    EXPECT_TRUE(core::exactly_equal(reply.formulas[0].bound_upper[s], 1.0));
  }
}

TEST(CheckService, NonPositiveDeadlineIsANamedError) {
  // No request can meet a deadline of 0 ms or less (or NaN): like w <= 0, it
  // is an invalid option that gets an error naming it, not a degraded
  // answer given without checking.
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);
  for (const double deadline : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    daemon::CheckRequest request;
    request.model = "tmr";
    request.formulas = {"S(<0.9) allUp"};
    request.options.deadline_ms = deadline;
    const daemon::CheckReply reply = service.submit(request).get();
    EXPECT_FALSE(reply.ok) << deadline;
    EXPECT_FALSE(reply.degraded) << deadline;
    EXPECT_NE(reply.error.find("'deadline_ms'"), std::string::npos) << reply.error;
  }
}

TEST(CheckService, FullQueueShedsInsteadOfStalling) {
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::ServiceOptions options;
  options.max_queue = 0;  // every request is over the admission bound
  daemon::CheckService service(registry, options);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"TT"};
  const daemon::CheckReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(reply.degraded);
  EXPECT_NE(reply.error.find("queue"), std::string::npos);
  ASSERT_EQ(reply.formulas.size(), 1u);
  EXPECT_EQ(reply.formulas[0].verdicts, std::string(5, '?'));
}

TEST(CheckService, StatsDeltaIsPerBatchNotProcessLifetime) {
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);
  obs::set_stats_enabled(true);

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]"};
  const daemon::CheckReply first = service.submit(request).get();
  const daemon::CheckReply second = service.submit(request).get();
  obs::set_stats_enabled(false);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  // Both requests did comparable work; cumulative reporting would make the
  // second delta roughly double the first.
  const auto calls = [](const daemon::CheckReply& reply) {
    const auto it = reply.stats_delta.counters.find("plan.compile.calls");
    return it != reply.stats_delta.counters.end() ? it->second : 0u;
  };
  EXPECT_EQ(calls(first), 1u);
  EXPECT_EQ(calls(second), 1u);
}

TEST(CheckService, StatsDeltaCarriesTheClassDpWorkspaceGauge) {
  // The bytes class-DP's retained workspace holds on the dispatcher thread
  // ride in the first delta after a reset (gauges merge by max, so a later
  // delta carries the gauge only when the workspace grew).
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);
  obs::set_stats_enabled(true);
  obs::StatsRegistry::global().reset();

  daemon::CheckRequest request;
  request.model = "tmr";
  request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]"};
  const daemon::CheckReply reply = service.submit(request).get();
  obs::set_stats_enabled(false);
  ASSERT_TRUE(reply.ok);
  const auto it = reply.stats_delta.gauges.find("classdp.workspace_bytes");
  ASSERT_NE(it, reply.stats_delta.gauges.end());
  EXPECT_GT(it->second, 0.0);
}

// -------------------------------------------------------------------- soak

/// The acceptance soak: 8 concurrent clients x 100 queries over mixed
/// resident models against ONE service must return results bitwise-identical
/// to cold direct checks, with over-budget (expired-deadline) requests
/// answered degraded instead of hanging.
TEST(DaemonSoak, ConcurrentClientsMatchColdChecksBitwise) {
  struct Combo {
    const char* model;
    core::Mrm built;
    std::string formula;
    plan::FormulaResult expected;
  };
  std::vector<Combo> combos;
  combos.push_back({"tmr", models::make_tmr(), "P(>0.1)[Sup U[0,10][0,300] failed]", {}});
  combos.push_back({"tmr", models::make_tmr(), "S(<0.9) allUp", {}});
  combos.push_back(
      {"cell", models::make_cellphone(),
       "P(>0.4)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]", {}});
  combos.push_back({"queue", models::make_mm1k(), "P(>0.05)[busy U[0,4][0,40] full]", {}});
  combos.push_back({"queue", models::make_mm1k(), "R(<30)[C[0,5]]", {}});
  for (Combo& combo : combos) combo.expected = direct_result(combo.built, combo.formula);

  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  registry.add(models::make_cellphone(), "cell");
  registry.add(models::make_mm1k(), "queue");
  daemon::ServiceOptions options;
  options.max_queue = 4096;  // soak admission-free; shedding is tested above
  daemon::CheckService service(registry, options);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 100;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> degraded(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const Combo& combo = combos[static_cast<std::size_t>(c + q) % combos.size()];
        daemon::CheckRequest request;
        request.model = combo.model;
        request.formulas = {combo.formula};
        // Every 10th query carries an already-expired deadline: it must come
        // back degraded immediately, never hang, and never perturb others.
        const bool expired = q % 10 == 9;
        if (expired) request.options.deadline_ms = std::numeric_limits<double>::denorm_min();
        const daemon::CheckReply reply = service.submit(request).get();
        if (!reply.ok || reply.formulas.size() != 1) {
          ++mismatches[c];
          continue;
        }
        if (expired) {
          if (!reply.degraded ||
              reply.formulas[0].verdicts !=
                  std::string(combo.expected.verdicts.size(), '?')) {
            ++mismatches[c];
          } else {
            ++degraded[c];
          }
          continue;
        }
        if (reply.degraded) {
          ++mismatches[c];
          continue;
        }
        // Bitwise comparison against the cold direct results.
        if (!bitwise_matches(reply.formulas[0], combo.expected)) ++mismatches[c];
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
    EXPECT_EQ(degraded[c], kQueriesPerClient / 10) << "client " << c;
  }
}

// ------------------------------------------------------------------ server

TEST(DaemonServer, HandleLineSpeaksTheProtocol) {
  daemon::ServerOptions options;
  options.socket_path = "/unused";  // handle_line needs no socket
  daemon::DaemonServer server(options);

  // Unknown op and malformed JSON become error replies, never throws.
  EXPECT_NE(server.handle_line(R"({"op":"warp"})").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(server.handle_line("not json").find("\"ok\":false"), std::string::npos);
  // Ping echoes the id.
  const std::string pong = server.handle_line(R"({"op":"ping","id":"42"})");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(pong.find("\"id\":\"42\""), std::string::npos);
}

TEST(DaemonServer, NonPositiveDeadlineOnTheWireGetsANamedError) {
  daemon::ServerOptions options;
  options.socket_path = "/unused";  // handle_line needs no socket
  daemon::DaemonServer server(options);
  server.registry().add(models::make_tmr(), "tmr");
  for (const char* deadline : {"-5", "0"}) {
    const std::string reply = server.handle_line(
        std::string(R"({"op":"check","model":"tmr","formulas":["S(<0.9) allUp"],)") +
        R"("options":{"deadline_ms":)" + deadline + "}}");
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("deadline_ms"), std::string::npos) << reply;
    EXPECT_EQ(reply.find("\"degraded\":true"), std::string::npos) << reply;
  }
}

TEST(DaemonServer, DeeplyNestedLineGetsAnErrorAndTheServerKeepsAnswering) {
  // A 200 000-byte line of '[' used to overflow the JSON parser's stack and
  // kill the daemon for every client. It must get an error reply, and the
  // same connection must still be served afterwards.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_deep_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();
  {
    daemon::Client client(socket_path);
    const obs::JsonValue rejected = client.roundtrip_line(std::string(200000, '[') + "\n");
    EXPECT_FALSE(rejected.at("ok").as_bool());
    EXPECT_NE(rejected.at("error").as_string().find("nesting deeper than"), std::string::npos)
        << rejected.at("error").as_string();

    obs::JsonValue ping = obs::JsonValue::object();
    ping.set("op", obs::JsonValue(std::string("ping")));
    ping.set("id", obs::JsonValue(std::string("after")));
    const obs::JsonValue pong = client.roundtrip(ping);
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_EQ(pong.at("id").as_string(), "after");
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, DeepSpecLoadGetsAnErrorAndTheServerKeepsAnswering) {
  // A .spec whose constant nests 200 000 parentheses used to overflow the
  // spec parser's stack inside the daemon. The load must get an error reply,
  // and the same connection must still be served afterwards.
  const std::filesystem::path directory =
      std::filesystem::temp_directory_path() /
      (std::string("mrmcheckd_deep_spec_") + std::to_string(::getpid()));
  std::filesystem::create_directories(directory);
  const std::string spec_path = (directory / "deep.spec").string();
  {
    std::ofstream out(spec_path);
    out << "const double c = " << std::string(200000, '(') << "1" << std::string(200000, ')')
        << ";\n";
  }
  const std::string socket_path = (directory / "server.sock").string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();
  {
    daemon::Client client(socket_path);
    obs::JsonValue load = obs::JsonValue::object();
    load.set("op", obs::JsonValue(std::string("load")));
    load.set("name", obs::JsonValue(std::string("deep")));
    load.set("spec", obs::JsonValue(spec_path));
    const obs::JsonValue rejected = client.roundtrip(load);
    EXPECT_FALSE(rejected.at("ok").as_bool());
    EXPECT_NE(rejected.at("error").as_string().find("nests deeper than"), std::string::npos)
        << rejected.at("error").as_string();

    obs::JsonValue ping = obs::JsonValue::object();
    ping.set("op", obs::JsonValue(std::string("ping")));
    EXPECT_TRUE(client.roundtrip(ping).at("ok").as_bool());
  }
  server.stop();
  std::filesystem::remove_all(directory);
}

TEST(DaemonServer, InfiniteExpectedRewardCrossesTheSocket) {
  // On crowd:population=4 some states never reach an outbreak, so R[F]
  // answers +infinity there; the client must decode the reply and match the
  // direct check bitwise.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_inf_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  const std::string spec = "crowd:population=4";
  server.registry().add(models::make_generated_mrm(spec), "c");
  server.start();
  {
    daemon::Client client(socket_path);
    daemon::CheckRequest request;
    request.model = "c";
    request.formulas = {"R(<50)[F outbreak]"};
    const daemon::CheckReply reply = daemon::check_reply_from_json(
        client.roundtrip(daemon::check_request_to_json(request)));
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.formulas.size(), 1u);
    const daemon::FormulaReply& answer = reply.formulas[0];
    ASSERT_TRUE(answer.has_values);
    EXPECT_NE(std::find(answer.values.begin(), answer.values.end(),
                        std::numeric_limits<double>::infinity()),
              answer.values.end());
    expect_matches_direct(answer,
                          direct_result(models::make_generated_mrm(spec), request.formulas[0]));
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, ReplySpanningManyReadsDecodesBitwise) {
  // Two P1 formulas over the 5 151 states of crowd:population=100 make a
  // reply line of a few hundred KB, which the client reads in 4 KiB pieces;
  // it must come back whole and bitwise equal to the direct check.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_big_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  const std::string spec = "crowd:population=100";
  server.registry().add(models::make_generated_mrm(spec), "c");
  server.start();
  {
    daemon::Client client(socket_path);
    daemon::CheckRequest request;
    request.model = "c";
    request.formulas = {"P(>0.2)[TT U[0,2] outbreak]", "P(>0.5)[!extinct U[0,4] outbreak]"};
    const obs::JsonValue wire = client.roundtrip(daemon::check_request_to_json(request));
    EXPECT_GT(obs::write_json_compact(wire).size(), std::size_t{64} * 4096);
    const daemon::CheckReply reply = daemon::check_reply_from_json(wire);
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.formulas.size(), 2u);
    const core::Mrm model = models::make_generated_mrm(spec);
    for (std::size_t f = 0; f < 2; ++f) {
      SCOPED_TRACE(request.formulas[f]);
      ASSERT_TRUE(reply.formulas[f].has_probabilities);
      EXPECT_EQ(reply.formulas[f].probabilities.size(), model.num_states());
      expect_matches_direct(reply.formulas[f], direct_result(model, request.formulas[f]));
    }
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

/// A bare client connection that can pipeline: send many framed requests in
/// one send, then read the replies line by line.
class PipelinedConnection {
 public:
  explicit PipelinedConnection(const std::string& socket_path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (fd_ < 0 || socket_path.size() >= sizeof(address.sun_path)) return;
    std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
    connected_ =
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0;
  }
  ~PipelinedConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  bool connected() const { return connected_; }

  bool send_all(const std::string& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t sent =
          ::send(fd_, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent <= 0) return false;
      written += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// The next reply line; empty when the daemon closed the connection.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

TEST(DaemonServer, PipelinedRequestsAreAnsweredInOrderBitwise) {
  // 96 check requests (four formulas in turn, ids 0..95) leave the client in
  // one send, so the daemon finds many lines per read. Every reply must come
  // back in request order, carry its id, and match the direct check bitwise.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_pipe_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.registry().add(models::make_tmr(), "tmr");
  server.start();
  const std::vector<std::string> formulas = {
      "P(>0.1)[Sup U[0,10][0,300] failed]", "S(<0.9) allUp", "P(>0.5)[TT U[0,5] failed]",
      "P(>0.1)[Sup U[0,50][0,3000] failed]"};
  std::vector<plan::FormulaResult> expected;
  for (const std::string& text : formulas) {
    expected.push_back(direct_result(models::make_tmr(), text));
  }
  constexpr std::size_t kRequests = 96;
  {
    PipelinedConnection connection(socket_path);
    ASSERT_TRUE(connection.connected());
    std::string pipelined;
    for (std::size_t i = 0; i < kRequests; ++i) {
      daemon::CheckRequest request;
      request.model = "tmr";
      request.formulas = {formulas[i % formulas.size()]};
      obs::JsonValue json = daemon::check_request_to_json(request);
      json.set("id", obs::JsonValue(std::to_string(i)));
      pipelined += daemon::frame(json);
    }
    ASSERT_TRUE(connection.send_all(pipelined));
    for (std::size_t i = 0; i < kRequests; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      const std::string line = connection.read_line();
      ASSERT_FALSE(line.empty());
      const obs::JsonValue wire = obs::parse_json(line);
      EXPECT_EQ(wire.at("id").as_string(), std::to_string(i));
      const daemon::CheckReply reply = daemon::check_reply_from_json(wire);
      ASSERT_TRUE(reply.ok) << reply.error;
      ASSERT_EQ(reply.formulas.size(), 1u);
      expect_matches_direct(reply.formulas[0], expected[i % formulas.size()]);
    }
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, RequestLineOfManyReadsGetsOneWellFormedReply) {
  // A ping whose id alone is 300 000 bytes arrives over more than 64 reads
  // of 4 KiB. It must be answered exactly once, as one well-formed reply
  // echoing the whole id, and the next request must get the next reply.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_long_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();
  {
    daemon::Client client(socket_path);
    const std::string long_id(300000, 'x');
    obs::JsonValue ping = obs::JsonValue::object();
    ping.set("op", obs::JsonValue(std::string("ping")));
    ping.set("id", obs::JsonValue(long_id));
    const std::string line = daemon::frame(ping);
    EXPECT_GT(line.size(), std::size_t{64} * 4096);
    const obs::JsonValue pong = client.roundtrip_line(line);
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_EQ(pong.at("id").as_string(), long_id);

    obs::JsonValue next = obs::JsonValue::object();
    next.set("op", obs::JsonValue(std::string("ping")));
    next.set("id", obs::JsonValue(std::string("next")));
    const obs::JsonValue after = client.roundtrip(next);
    EXPECT_TRUE(after.at("ok").as_bool());
    EXPECT_EQ(after.at("id").as_string(), "next");
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, OverLongRequestLineGetsOneErrorAndOthersAreStillAnswered) {
  // A client streaming a line past kMaxRequestLineBytes gets one error reply
  // naming the cap and is disconnected; a client connected all along is
  // still answered.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_cap_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();
  {
    PipelinedConnection bystander(socket_path);
    PipelinedConnection flooder(socket_path);
    ASSERT_TRUE(bystander.connected());
    ASSERT_TRUE(flooder.connected());
    const std::string ping = R"({"op":"ping"})" "\n";
    ASSERT_TRUE(bystander.send_all(ping));
    EXPECT_NE(bystander.read_line().find("\"ok\":true"), std::string::npos);

    // The server reads all kMaxRequestLineBytes + 1 bytes before it answers.
    ASSERT_TRUE(flooder.send_all(std::string(daemon::kMaxRequestLineBytes + 1, 'x')));
    const std::string error = flooder.read_line();
    EXPECT_NE(error.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(error.find(std::to_string(daemon::kMaxRequestLineBytes)), std::string::npos);
    EXPECT_TRUE(flooder.read_line().empty()) << "the connection must be closed";

    ASSERT_TRUE(bystander.send_all(ping));
    EXPECT_NE(bystander.read_line().find("\"ok\":true"), std::string::npos);
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, ClosedConnectionThreadsAreJoinedOnTheNextAccept) {
  // 20 sequential connect / ping / close cycles, one client at a time: each
  // accept joins the threads of the connections closed before it, so the
  // server never holds more than the live connection's thread and one
  // that has just finished.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_reap_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();
  const std::string ping = R"({"op":"ping"})" "\n";
  for (int cycle = 0; cycle < 20; ++cycle) {
    {
      PipelinedConnection client(socket_path);
      ASSERT_TRUE(client.connected()) << "cycle " << cycle;
      ASSERT_TRUE(client.send_all(ping));
      EXPECT_NE(client.read_line().find("\"ok\":true"), std::string::npos);
      // Answered, so accepted: the reap for this accept has run.
      EXPECT_LE(server.connection_threads(), 2u) << "cycle " << cycle;
    }
    // Let the closed connection's thread finish before the next connect,
    // so the bound above does not depend on scheduling.
    for (int wait = 0; wait < 5000 && server.open_connections() > 0; ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.open_connections(), 0u) << "cycle " << cycle;
  }
  EXPECT_LE(server.connection_threads(), 2u);
  server.stop();
  EXPECT_EQ(server.connection_threads(), 0u);
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonServer, ManyConnectionsAreEachAnsweredInOrder) {
  // Six clients are connected at once, and each pipelines pings and checks
  // in one send before any of them reads. Every connection gets every
  // reply, in its own request order, with checks bitwise equal to the
  // direct result, while the dispatcher batches across connections. Once
  // all six have closed, the next accept joins their threads. The test
  // starts no thread itself: the server runs its accept loop, dispatcher
  // and one thread per connection, eight at most.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_many_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.registry().add(models::make_tmr(), "tmr");
  server.start();
  const std::vector<std::string> formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]",
                                             "S(<0.9) allUp"};
  std::vector<plan::FormulaResult> expected;
  for (const std::string& text : formulas) {
    expected.push_back(direct_result(models::make_tmr(), text));
  }
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kLines = 6;  // ping, check, ping, check, ...
  const auto id_of = [](std::size_t client, std::size_t line) {
    return std::to_string(client) + "." + std::to_string(line);
  };
  {
    std::vector<std::unique_ptr<PipelinedConnection>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<PipelinedConnection>(socket_path));
      ASSERT_TRUE(clients.back()->connected()) << "client " << c;
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      std::string pipelined;
      for (std::size_t i = 0; i < kLines; ++i) {
        obs::JsonValue json = obs::JsonValue::object();
        if (i % 2 == 0) {
          json.set("op", obs::JsonValue(std::string("ping")));
        } else {
          daemon::CheckRequest request;
          request.model = "tmr";
          request.formulas = {formulas[(c + i / 2) % formulas.size()]};
          json = daemon::check_request_to_json(request);
        }
        json.set("id", obs::JsonValue(id_of(c, i)));
        pipelined += daemon::frame(json);
      }
      ASSERT_TRUE(clients[c]->send_all(pipelined)) << "client " << c;
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < kLines; ++i) {
        SCOPED_TRACE("client " + std::to_string(c) + ", line " + std::to_string(i));
        const std::string line = clients[c]->read_line();
        ASSERT_FALSE(line.empty());
        const obs::JsonValue wire = obs::parse_json(line);
        EXPECT_EQ(wire.at("id").as_string(), id_of(c, i));
        if (i % 2 == 0) {
          EXPECT_TRUE(wire.at("ok").as_bool());
          continue;
        }
        const daemon::CheckReply reply = daemon::check_reply_from_json(wire);
        ASSERT_TRUE(reply.ok) << reply.error;
        ASSERT_EQ(reply.formulas.size(), 1u);
        expect_matches_direct(reply.formulas[0], expected[(c + i / 2) % formulas.size()]);
      }
    }
    EXPECT_EQ(server.open_connections(), kClients);
  }
  for (int wait = 0; wait < 5000 && server.open_connections() > 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.open_connections(), 0u);
  {
    PipelinedConnection next(socket_path);
    ASSERT_TRUE(next.connected());
    ASSERT_TRUE(next.send_all(R"({"op":"ping"})" "\n"));
    EXPECT_NE(next.read_line().find("\"ok\":true"), std::string::npos);
    // Answered, so accepted: that accept joined the six closed threads.
    EXPECT_LE(server.connection_threads(), 1u);
  }
  server.stop();
  EXPECT_EQ(server.connection_threads(), 0u);
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

/// CPU time (user + system, all threads) this process has used, in ms.
double process_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3) +
         (static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3);
}

/// The body of AcceptBacksOffWhileOutOfDescriptors, run in a forked child
/// because it lowers the process's descriptor limit. Returns the child's
/// exit code: 0 on success, otherwise the number of the failed step. The
/// child starts the server's threads, which ThreadSanitizer allows only
/// when the parent had one thread at the fork: true under ctest, which runs
/// every test in a process of its own.
int accept_starved_child(const std::string& socket_path) {
  // Take every descriptor below a lowered limit but two: one for the
  // client's socket and one for the server's listener. Both exist before
  // the accept loop starts, since accept() reserves its descriptor before
  // it waits; from then on every accept() can only fail with EMFILE.
  const int probe = ::open("/dev/null", O_RDONLY);
  if (probe < 0) return 1;
  ::close(probe);
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1;
  limit.rlim_cur = static_cast<rlim_t>(probe + 16);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 1;
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) fillers.push_back(fd);
  if (errno != EMFILE || fillers.size() < 2) return 2;
  for (int i = 0; i < 2; ++i) {
    ::close(fillers.back());
    fillers.pop_back();
  }
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (client < 0) return 3;

  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  try {
    server.start();
  } catch (const std::exception&) {
    return 3;
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(client, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    return 3;
  }
  const std::string ping = "{\"op\":\"ping\"}\n";
  if (::send(client, ping.data(), ping.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(ping.size())) {
    return 3;
  }

  // For 300 ms the connection cannot be accepted, so no reply may arrive,
  // and the accept loop must not burn the CPU retrying.
  pollfd readable{client, POLLIN, 0};
  const double cpu_before = process_cpu_ms();
  if (const int ready = ::poll(&readable, 1, 300); ready != 0) {
    std::fprintf(stderr, "poll returned %d (revents %#x, errno %d) while accept was starved\n",
                 ready, static_cast<unsigned>(readable.revents), errno);
    return 4;
  }
  const double cpu_used = process_cpu_ms() - cpu_before;
  if (cpu_used > 60.0) {
    std::fprintf(stderr, "accept loop used %.1f ms of CPU in 300 ms\n", cpu_used);
    return 5;
  }

  // Once descriptors are free again the queued client is served.
  for (const int fd : fillers) ::close(fd);
  if (::poll(&readable, 1, 10000) != 1) return 6;
  char reply[256];
  const ssize_t got = ::read(client, reply, sizeof(reply));
  if (got <= 0 || std::string(reply, static_cast<std::size_t>(got)).find("\"ok\":true") ==
                      std::string::npos) {
    return 6;
  }
  ::close(client);
  server.stop();
  return 0;
}

TEST(DaemonServer, AcceptBacksOffWhileOutOfDescriptors) {
  // Exit codes of accept_starved_child: 1 setup, 2 the descriptor table
  // could not be filled, 3 the server could not start or the client could
  // not connect, 4 a reply arrived
  // although accept() had no descriptor, 5 the accept loop spun, 6 the
  // client went unserved after descriptors were freed.
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_starved_") + std::to_string(::getpid()) + ".sock"))
          .string();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(30);  // a hung child is killed instead of hanging the suite
    ::_exit(accept_starved_child(socket_path));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  std::filesystem::remove(socket_path);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

/// The body of StopReturnsWhileAClientLeavesItsRepliesUnread, run in a
/// forked child so that a stop() that never returns is killed by an alarm
/// instead of hanging the suite. Returns 0 on success, otherwise the number
/// of the failed step.
int unread_replies_child(const std::string& socket_path) {
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  try {
    server.start();
  } catch (const std::exception&) {
    return 1;
  }
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (client < 0 ||
      ::connect(client, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    return 1;
  }

  // Pipeline pings and read nothing until the socket has stayed full for
  // 200 ms: the server's replies have filled what the client does not
  // drain, so its connection thread waits to write and reads no more.
  std::string burst;
  for (int i = 0; i < 1024; ++i) burst += "{\"op\":\"ping\"}\n";
  std::size_t pipelined = 0;
  pollfd writable{client, POLLOUT, 0};
  while (::poll(&writable, 1, 200) == 1) {
    const ssize_t sent =
        ::send(client, burst.data(), burst.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) pipelined += static_cast<std::size_t>(sent);
    if (pipelined > (std::size_t{64} << 20)) return 2;  // the replies never backed up
  }
  if (pipelined < burst.size()) return 2;

  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  const auto waited = std::chrono::steady_clock::now() - begin;
  ::close(client);
  if (waited > std::chrono::seconds(2)) {
    std::fprintf(stderr, "stop() took %lld ms\n",
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(waited).count()));
    return 3;
  }
  return 0;
}

TEST(DaemonServer, StopReturnsWhileAClientLeavesItsRepliesUnread) {
  // One client pipelines requests and never reads a reply. stop() must
  // still return promptly: exit code 3 of unread_replies_child, or the
  // alarm's signal when it does not return at all. Codes 1 and 2 are setup
  // failures (no connection; the client's sends never backed up).
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_unread_") + std::to_string(::getpid()) + ".sock"))
          .string();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(10);  // a stop() that never returns is killed here
    ::_exit(unread_replies_child(socket_path));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  std::filesystem::remove(socket_path);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(DaemonServer, SocketRoundTripLoadCheckStatsShutdown) {
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       (std::string("mrmcheckd_test_") + std::to_string(::getpid()) + ".sock"))
          .string();
  daemon::ServerOptions options;
  options.socket_path = socket_path;
  daemon::DaemonServer server(options);
  server.start();

  const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
  {
    daemon::Client client(socket_path);
    obs::JsonValue load = obs::JsonValue::object();
    load.set("op", obs::JsonValue(std::string("load")));
    load.set("name", obs::JsonValue(std::string("tmr")));
    load.set("tra", obs::JsonValue(models + "/tmr.tra"));
    load.set("lab", obs::JsonValue(models + "/tmr.lab"));
    load.set("rewr", obs::JsonValue(models + "/tmr.rewr"));
    load.set("rewi", obs::JsonValue(models + "/tmr.rewi"));
    const obs::JsonValue loaded = client.roundtrip(load);
    ASSERT_TRUE(loaded.at("ok").as_bool());
    EXPECT_TRUE(core::exactly_equal(loaded.at("states").as_number(), 5.0));

    daemon::CheckRequest request;
    request.model = "tmr";
    request.formulas = {"P(>0.1)[Sup U[0,10][0,300] failed]"};
    const daemon::CheckReply reply = daemon::check_reply_from_json(
        client.roundtrip(daemon::check_request_to_json(request)));
    ASSERT_TRUE(reply.ok) << reply.error;
    // The wire reply must match the direct check bitwise, double for double.
    expect_matches_direct(
        reply.formulas[0],
        direct_result(io::load_mrm(models + "/tmr.tra", models + "/tmr.lab",
                                   models + "/tmr.rewr", models + "/tmr.rewi"),
                      request.formulas[0]));

    obs::JsonValue stats = obs::JsonValue::object();
    stats.set("op", obs::JsonValue(std::string("stats")));
    EXPECT_TRUE(client.roundtrip(stats).at("ok").as_bool());

    obs::JsonValue shutdown = obs::JsonValue::object();
    shutdown.set("op", obs::JsonValue(std::string("shutdown")));
    EXPECT_TRUE(client.roundtrip(shutdown).at("ok").as_bool());
  }
  server.wait_for_shutdown();
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

}  // namespace
