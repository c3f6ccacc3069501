// Warm daemon vs cold processes, written to BENCH_daemon.json (CWD, or the
// path given as argv[1]).
//
// Workload: the Table 5.4 formula family P(>0.1)[Sup U[0,t][0,3000] failed]
// on the TMR model, one query per t = 50..500 step 50, the whole sweep
// repeated over several rounds. Three lanes:
//
//   cold — every query spawns the real mrmcheck binary (fork/exec, model
//     files re-parsed, every cache empty), which is what scripting the CLI
//     per query costs;
//   warm — the same queries through one resident daemon::CheckService: the
//     model is parsed once, absorbing transforms stay in the per-model
//     TransformCache across queries (each solve builds its own Poisson
//     table; one untimed round first — a long-lived daemon is measured at its
//     steady state);
//   concurrent — the warm sweep issued by 8 client threads at once, to
//     record multi-client throughput through the batching dispatcher.
//
// Daemon replies are checked bitwise against a direct check through a fresh
// plan and transform cache — "bitwise_identical" lands in the JSON; the
// speedup buys identical answers or it does not count.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checker/options.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "daemon/model_registry.hpp"
#include "daemon/protocol.hpp"
#include "daemon/service.hpp"
#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace {

using namespace csrlmrm;

int g_rounds = 5;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One cold-process query: the real mrmcheck binary against the checked-in
/// TMR model files. Returns false when the child fails.
bool run_cold_query(const std::string& formula) {
  const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
  const std::string command = std::string("'") + MRMCHECK_BINARY + "' '" + models +
                              "/tmr.tra' '" + models + "/tmr.lab' '" + models +
                              "/tmr.rewr' '" + models + "/tmr.rewi' NP '" + formula +
                              "' >/dev/null 2>/dev/null";
  return std::system(command.c_str()) == 0;
}

bool reply_matches_direct(const daemon::CheckReply& reply,
                          const plan::FormulaResult& expected) {
  if (!reply.ok || reply.degraded || reply.formulas.size() != 1) return false;
  const daemon::FormulaReply& formula = reply.formulas[0];
  if (!formula.ok || formula.verdicts.size() != expected.verdicts.size()) return false;
  for (std::size_t s = 0; s < expected.verdicts.size(); ++s) {
    const char want = expected.verdicts[s] == checker::Verdict::kSat      ? 'Y'
                      : expected.verdicts[s] == checker::Verdict::kUnsat ? 'N'
                                                                         : '?';
    if (formula.verdicts[s] != want) return false;
  }
  if (!formula.has_probabilities ||
      formula.probabilities.size() != expected.probabilities.size()) {
    return false;
  }
  for (std::size_t s = 0; s < expected.probabilities.size(); ++s) {
    if (!core::exactly_equal(formula.probabilities[s],
                             expected.probabilities[s].probability)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_daemon.json";
  double t_end = 500.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_rounds = 1;
      t_end = 100.0;  // two formulas x one round: every code path, fast
    } else {
      out_path = argv[i];
    }
  }

  std::vector<std::string> texts;
  for (double t = 50.0; t <= t_end; t += 50.0) {
    char text[96];
    std::snprintf(text, sizeof(text), "P(>0.1)[Sup U[0,%.0f][0,3000] failed]", t);
    texts.emplace_back(text);
  }
  const std::size_t queries_per_round = texts.size();
  const std::size_t total_queries = queries_per_round * static_cast<std::size_t>(g_rounds);

  // Fresh-plan reference results for the bitwise check.
  const core::Mrm model = models::make_tmr();
  std::vector<plan::FormulaResult> expected;
  for (const std::string& text : texts) {
    const auto formula = logic::parse_formula(text);
    const plan::Plan compiled = plan::compile(model, {formula}, checker::CheckerOptions{});
    core::TransformCache transforms(model);
    plan::PlanResult result = plan::execute(compiled, model, transforms);
    expected.push_back(std::move(result.formulas[0]));
  }

  // --- cold lane: one mrmcheck process per query --------------------------
  bool cold_ok = true;
  const double cold_start = now_ms();
  for (int round = 0; round < g_rounds; ++round) {
    for (const std::string& text : texts) cold_ok = run_cold_query(text) && cold_ok;
  }
  const double cold_ms = now_ms() - cold_start;
  if (!cold_ok) {
    std::printf("cold lane failed: mrmcheck returned nonzero\n");
    return 1;
  }

  // --- warm lane: one resident service, sequential queries ----------------
  daemon::ModelRegistry registry;
  registry.add(models::make_tmr(), "tmr");
  daemon::CheckService service(registry);
  const auto submit_one = [&service](const std::string& text) {
    daemon::CheckRequest request;
    request.model = "tmr";
    request.formulas = {text};
    return service.submit(std::move(request)).get();
  };

  bool identical = true;
  for (std::size_t i = 0; i < queries_per_round; ++i) {  // untimed warmup round
    identical = reply_matches_direct(submit_one(texts[i]), expected[i]) && identical;
  }
  const double warm_start = now_ms();
  for (int round = 0; round < g_rounds; ++round) {
    for (std::size_t i = 0; i < queries_per_round; ++i) {
      identical = reply_matches_direct(submit_one(texts[i]), expected[i]) && identical;
    }
  }
  const double warm_ms = now_ms() - warm_start;

  // --- concurrent lane: 8 clients hammering the same service --------------
  constexpr int kClients = 8;
  std::vector<int> client_mismatches(kClients, 0);
  const double concurrent_start = now_ms();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < g_rounds; ++round) {
          for (std::size_t i = 0; i < queries_per_round; ++i) {
            const std::size_t at = (static_cast<std::size_t>(c) + i) % queries_per_round;
            if (!reply_matches_direct(submit_one(texts[at]), expected[at])) {
              ++client_mismatches[c];
            }
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double concurrent_ms = now_ms() - concurrent_start;
  for (const int mismatches : client_mismatches) identical = identical && mismatches == 0;

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const double concurrent_queries =
      static_cast<double>(total_queries) * static_cast<double>(kClients);
  const double concurrent_qps =
      concurrent_ms > 0.0 ? 1000.0 * concurrent_queries / concurrent_ms : 0.0;
  std::printf("daemon bench (TMR, %zu queries/lane, %d rounds)\n", total_queries, g_rounds);
  std::printf("  cold processes: %8.3f ms (%.3f ms/query)\n", cold_ms,
              cold_ms / static_cast<double>(total_queries));
  std::printf("  warm daemon:    %8.3f ms (%.3f ms/query)\n", warm_ms,
              warm_ms / static_cast<double>(total_queries));
  std::printf("  speedup:        %.2fx\n", speedup);
  std::printf("  concurrent:     %8.3f ms for %d clients (%.0f queries/s)\n", concurrent_ms,
              kClients, concurrent_qps);
  std::printf("  bitwise identical: %s\n", identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"daemon_warm_vs_cold_process\",\n");
  std::fprintf(out, "  \"model\": \"tmr\",\n  \"formula_family\": "
                    "\"P(>0.1)[Sup U[0,t][0,3000] failed]\",\n");
  std::fprintf(out, "  \"t_values\": [");
  for (std::size_t i = 0; i < queries_per_round; ++i) {
    std::fprintf(out, "%s%.0f", i == 0 ? "" : ", ", 50.0 * static_cast<double>(i + 1));
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"rounds\": %d,\n", g_rounds);
  std::fprintf(out, "  \"queries_per_lane\": %zu,\n", total_queries);
  std::fprintf(out, "  \"cold_process_ms\": %.3f,\n", cold_ms);
  std::fprintf(out, "  \"warm_daemon_ms\": %.3f,\n", warm_ms);
  std::fprintf(out, "  \"speedup\": %.2f,\n", speedup);
  std::fprintf(out, "  \"concurrent_clients\": %d,\n", kClients);
  std::fprintf(out, "  \"concurrent_ms\": %.3f,\n", concurrent_ms);
  std::fprintf(out, "  \"concurrent_queries_per_s\": %.0f,\n", concurrent_qps);
  std::fprintf(out, "  \"bitwise_identical\": %s\n}\n", identical ? "true" : "false");
  std::fclose(out);

  return identical ? 0 : 1;
}
