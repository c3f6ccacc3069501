// Batch-of-N vs N-singletons record for the plan pipeline, written to
// BENCH_plan.json (CWD, or the path given as argv[1]).
//
// Workload: the Table 5.4 formula family P(>0.1)[Sup U[0,t][0,3000] failed]
// on the TMR model, one formula per t = 50..500 step 50. Two lanes:
//
//   singleton — each formula checked like a separate mrmcheck run: fresh
//     ModelChecker (so a fresh transform cache), and both the per-state
//     probabilities and the verdicts requested. The checker serves both
//     from one execution of a one-root plan, so each formula costs one
//     until solve;
//   batch — every formula through ONE compiled plan: one solve per formula
//     as well, but the until solves draw their transform from one shared
//     TransformCache.
//
// Verdicts and probabilities must agree BITWISE between the lanes (checked
// here; "bitwise_identical" lands in the JSON) — the speedup buys identical
// answers or it does not count. Timings are best-of-g_repeats wall clock
// after one untimed warmup per lane (every solve builds its own Omega
// evaluators and Poisson table, so warmup only stabilises the allocator and
// the instruction caches).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checker/sat.hpp"
#include "core/transform.hpp"
#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace {

using namespace csrlmrm;

int g_repeats = 5;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double best_of(Fn&& fn) {
  fn();  // untimed warmup: page in code, size the allocator pools
  double best = 1e300;
  for (int repeat = 0; repeat < g_repeats; ++repeat) {
    const double start = now_ms();
    fn();
    best = best < now_ms() - start ? best : now_ms() - start;
  }
  return best;
}

struct FormulaOutcome {
  std::vector<checker::Verdict> verdicts;
  std::vector<checker::UntilValue> probabilities;
};

bool bitwise_equal(const FormulaOutcome& a, const FormulaOutcome& b) {
  if (a.verdicts != b.verdicts) return false;
  if (a.probabilities.size() != b.probabilities.size()) return false;
  for (std::size_t s = 0; s < a.probabilities.size(); ++s) {
    if (std::memcmp(&a.probabilities[s].probability, &b.probabilities[s].probability,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.probabilities[s].error_bound, &b.probabilities[s].error_bound,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.probabilities[s].bound.lower, &b.probabilities[s].bound.lower,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.probabilities[s].bound.upper, &b.probabilities[s].bound.upper,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_plan.json";
  double t_end = 500.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_repeats = 1;
      t_end = 100.0;  // two formulas: enough to exercise every code path
    } else {
      out_path = argv[i];
    }
  }

  const core::Mrm model = models::make_tmr();
  checker::CheckerOptions options;

  std::vector<logic::FormulaPtr> batch;
  std::vector<std::string> texts;
  for (double t = 50.0; t <= t_end; t += 50.0) {
    char text[96];
    std::snprintf(text, sizeof(text), "P(>0.1)[Sup U[0,%.0f][0,3000] failed]", t);
    texts.emplace_back(text);
    batch.push_back(logic::parse_formula(text));
  }
  const std::size_t n_formulas = batch.size();

  // --- singleton lane -----------------------------------------------------
  std::vector<FormulaOutcome> singleton_results(n_formulas);
  const double singleton_ms = best_of([&] {
    for (std::size_t i = 0; i < n_formulas; ++i) {
      checker::ModelChecker direct(model, options);
      singleton_results[i].probabilities = direct.path_probabilities(batch[i]);
      singleton_results[i].verdicts = direct.verdicts(batch[i]);
    }
  });

  // --- batch lane ---------------------------------------------------------
  std::vector<FormulaOutcome> batch_results(n_formulas);
  const double batch_ms = best_of([&] {
    const plan::Plan compiled = plan::compile(model, batch, options);
    core::TransformCache transforms(model);
    const plan::PlanResult result = plan::execute(compiled, model, transforms);
    for (std::size_t i = 0; i < n_formulas; ++i) {
      batch_results[i].probabilities = result.formulas[i].probabilities;
      batch_results[i].verdicts = result.formulas[i].verdicts;
    }
  });

  bool identical = true;
  for (std::size_t i = 0; i < n_formulas; ++i) {
    if (!bitwise_equal(singleton_results[i], batch_results[i])) {
      identical = false;
      std::printf("MISMATCH at formula %zu: %s\n", i, texts[i].c_str());
    }
  }

  const double speedup = batch_ms > 0.0 ? singleton_ms / batch_ms : 0.0;
  std::printf("plan batch bench (TMR, %zu formulas, best of %d)\n", n_formulas, g_repeats);
  std::printf("  singletons: %8.3f ms\n  batch:      %8.3f ms\n  speedup:    %.2fx\n",
              singleton_ms, batch_ms, speedup);
  std::printf("  bitwise identical: %s\n", identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"plan_batch_vs_singletons\",\n");
  std::fprintf(out, "  \"model\": \"tmr\",\n  \"formula_family\": "
                    "\"P(>0.1)[Sup U[0,t][0,3000] failed]\",\n");
  std::fprintf(out, "  \"t_values\": [");
  for (std::size_t i = 0; i < n_formulas; ++i) {
    std::fprintf(out, "%s%.0f", i == 0 ? "" : ", ", 50.0 * static_cast<double>(i + 1));
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"repeats\": %d,\n", g_repeats);
  std::fprintf(out, "  \"singletons_ms\": %.3f,\n", singleton_ms);
  std::fprintf(out, "  \"batch_ms\": %.3f,\n", batch_ms);
  std::fprintf(out, "  \"speedup\": %.2f,\n", speedup);
  std::fprintf(out, "  \"bitwise_identical\": %s\n}\n", identical ? "true" : "false");
  std::fclose(out);

  return identical ? 0 : 1;
}
