// Million-state substrate record, written to BENCH_large.json (CWD, or the
// path given as argv[1]).
//
// Three measurements over the streamed generator workloads (grid mesh,
// crowd epidemic, virus spread — the largest a 1024x1024 grid with 2^20
// states):
//   1. substrate    — streamed BFS-into-CSR build time, model shape, and the
//      process peak RSS after the build (states vs wall clock vs memory);
//   2. check        — a full time-bounded until query through the checker
//      (the backward-series P1 path on every workload here), reporting the
//      sound interval verdict plus the backward series' term count and
//      steady-state detection accounting;
//   3. blocked_spmv — the SELL-C blocked kernel vs the reference CSR gather
//      on the workload's uniformized P^T at 1 and 8 threads, with a bitwise
//      agreement gate (memcmp) that decides the exit code.
//
// A fourth section replays the stiff M/M/1/50 queue (Lambda*t ~ 1e5 Poisson
// terms) with steady-state detection off and on: terms saved, the reported
// fold error, the observed max deviation, and a threshold-verdict agreement
// check that also gates the exit code. `--smoke` shrinks every workload so
// the bench-smoke ctest lane finishes in well under a second.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checker/until.hpp"
#include "linalg/blocked_csr.hpp"
#include "models/generator.hpp"
#include "models/mm1k.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "oracle/linalg_reference.hpp"
#include "oracle/transient_forward.hpp"

namespace {

using namespace csrlmrm;

int g_repeats = 2;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int repeat = 0; repeat < g_repeats; ++repeat) {
    const double start = now_ms();
    fn();
    best = std::min(best, now_ms() - start);
  }
  return best;
}

/// Process peak RSS in MiB (ru_maxrss is KiB on Linux). Monotone over the
/// process lifetime, so per-workload values read as "peak after this build".
double peak_rss_mib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n, 0.0);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    x[i] = static_cast<double>(state >> 11) * 0x1.0p-53 + 0x1.0p-60;
  }
  return x;
}

struct SpmvRecord {
  double csr_ms_1t = 0.0;
  double csr_ms_8t = 0.0;
  double blocked_ms_1t = 0.0;
  double blocked_ms_8t = 0.0;
  bool bitwise_identical = true;
  double padding_ratio = 0.0;  // padded slots / real non-zeros
};

/// Times `iters` repeated multiplies of the gather CSR vs its blocked
/// repack and memcmp-gates the outputs at 1, 2, and 8 threads.
SpmvRecord measure_spmv(const linalg::CsrMatrix& gather, int iters) {
  SpmvRecord record;
  const linalg::BlockedCsrMatrix blocked(gather);
  record.padding_ratio =
      gather.non_zeros() == 0
          ? 0.0
          : static_cast<double>(blocked.padded_entries()) /
                static_cast<double>(gather.non_zeros());
  const std::vector<double> x = random_vector(gather.cols(), 7);
  std::vector<double> reference(gather.rows(), 0.0);
  multiply_into(gather, x, reference, 1);
  std::vector<double> y(gather.rows(), 0.0);
  for (const unsigned threads : {1u, 2u, 8u}) {
    blocked.multiply_into(x, y, threads);
    if (std::memcmp(y.data(), reference.data(), y.size() * sizeof(double)) != 0) {
      record.bitwise_identical = false;
    }
  }
  record.csr_ms_1t = best_of([&] {
    for (int i = 0; i < iters; ++i) multiply_into(gather, x, y, 1);
  });
  record.csr_ms_8t = best_of([&] {
    for (int i = 0; i < iters; ++i) multiply_into(gather, x, y, 8);
  });
  record.blocked_ms_1t = best_of([&] {
    for (int i = 0; i < iters; ++i) blocked.multiply_into(x, y, 1);
  });
  record.blocked_ms_8t = best_of([&] {
    for (int i = 0; i < iters; ++i) blocked.multiply_into(x, y, 8);
  });
  return record;
}

struct WorkloadRecord {
  std::string spec;
  std::string target;
  double horizon = 0.0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  double explore_ms = 0.0;
  double peak_rss_mib = 0.0;
  double check_ms = 0.0;
  double probability = 0.0;
  double error_bound = 0.0;
  double interval_lower = 0.0;
  double interval_upper = 0.0;
  std::size_t series_terms = 0;
  bool steady_detected = false;
  std::size_t terms_saved = 0;
  SpmvRecord spmv;
};

void print_workload(std::FILE* out, const WorkloadRecord& r, bool last) {
  std::fprintf(out, "    {\n");
  std::fprintf(out, "      \"spec\": \"%s\",\n", r.spec.c_str());
  std::fprintf(out, "      \"states\": %zu,\n", r.states);
  std::fprintf(out, "      \"transitions\": %zu,\n", r.transitions);
  std::fprintf(out, "      \"explore_ms\": %.1f,\n", r.explore_ms);
  std::fprintf(out, "      \"peak_rss_mib_after_build\": %.1f,\n", r.peak_rss_mib);
  std::fprintf(out, "      \"check\": {\n");
  std::fprintf(out, "        \"query\": \"P=? [ true U[0,%g] %s ] from state 0\",\n",
               r.horizon, r.target.c_str());
  std::fprintf(out, "        \"check_ms\": %.1f,\n", r.check_ms);
  std::fprintf(out, "        \"probability\": %.12g,\n", r.probability);
  std::fprintf(out, "        \"error_bound\": %.3e,\n", r.error_bound);
  std::fprintf(out, "        \"interval\": [%.12g, %.12g],\n", r.interval_lower,
               r.interval_upper);
  std::fprintf(out, "        \"series_terms\": %zu,\n", r.series_terms);
  std::fprintf(out, "        \"steady_state_detected\": %s,\n",
               r.steady_detected ? "true" : "false");
  std::fprintf(out, "        \"terms_saved\": %zu\n      },\n", r.terms_saved);
  std::fprintf(out, "      \"blocked_spmv\": {\n");
  std::fprintf(out, "        \"csr_ms\": {\"1\": %.2f, \"8\": %.2f},\n", r.spmv.csr_ms_1t,
               r.spmv.csr_ms_8t);
  std::fprintf(out, "        \"blocked_ms\": {\"1\": %.2f, \"8\": %.2f},\n",
               r.spmv.blocked_ms_1t, r.spmv.blocked_ms_8t);
  std::fprintf(out, "        \"speedup_vs_csr\": {\"1\": %.2f, \"8\": %.2f},\n",
               r.spmv.csr_ms_1t / r.spmv.blocked_ms_1t,
               r.spmv.csr_ms_8t / r.spmv.blocked_ms_8t);
  std::fprintf(out, "        \"padding_ratio\": %.3f,\n", r.spmv.padding_ratio);
  std::fprintf(out, "        \"bitwise_identical\": %s\n      }\n    }%s\n",
               r.spmv.bitwise_identical ? "true" : "false", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_large.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      g_repeats = 1;
    } else {
      out_path = argv[i];
    }
  }

  struct WorkloadSpec {
    const char* spec;
    const char* target;
    double horizon;
  };
  // Horizons are sized so the queried probability is neither 0 nor 1 to all
  // digits (the packet walk's net drift velocity puts delivery around
  // distance/|v|) while Lambda*t stays in the low thousands; the stiff
  // Lambda*t ~ 1e5 regime lives in the dedicated steady-state section below.
  // The smoke grid deliberately stays under the backward-until threshold so
  // the lane also exercises the forward fan-out route end to end.
  const std::vector<WorkloadSpec> specs =
      smoke ? std::vector<WorkloadSpec>{{"grid:width=24,height=24", "delivered", 10.0},
                                        {"crowd:population=30", "outbreak", 5.0},
                                        {"virus:hosts=8", "clean", 4.0}}
            : std::vector<WorkloadSpec>{{"grid:width=256,height=256", "delivered", 300.0},
                                        {"grid:width=1024,height=1024,drift=4", "delivered",
                                         400.0},
                                        {"crowd:population=600", "outbreak", 20.0},
                                        {"virus:hosts=18", "clean", 6.0}};
  const int spmv_iters = smoke ? 3 : 20;

  bool all_gates_passed = true;
  std::vector<WorkloadRecord> workloads;
  for (const WorkloadSpec& spec : specs) {
    WorkloadRecord record;
    record.spec = spec.spec;
    record.target = spec.target;
    record.horizon = spec.horizon;

    const double explore_start = now_ms();
    const core::Mrm model = models::make_generated_mrm(spec.spec);
    record.explore_ms = now_ms() - explore_start;
    record.states = model.num_states();
    record.transitions = model.rates().matrix().non_zeros();
    record.peak_rss_mib = peak_rss_mib();

    const std::vector<bool> target = model.labels().states_with(spec.target);
    checker::CheckerOptions options;
    options.transient.detect_steady_state = true;
    // Stats stay on for the timed check: the series term count and
    // steady-state accounting come from the counters the run leaves behind,
    // and counter increments are noise next to the SpMV terms they count.
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
    const double check_start = now_ms();
    const auto values =
        checker::until_probabilities(model, std::vector<bool>(record.states, true), target,
                                     logic::up_to(spec.horizon), logic::Interval{}, options);
    record.check_ms = now_ms() - check_start;
    record.series_terms = obs::StatsRegistry::global().counter("transient.series_terms");
    record.steady_detected =
        obs::StatsRegistry::global().counter("uniformization.steady_detected") > 0;
    record.terms_saved = obs::StatsRegistry::global().counter("uniformization.terms_saved");
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
    record.probability = values[0].probability;
    record.error_bound = values[0].error_bound;
    record.interval_lower = values[0].bound.lower;
    record.interval_upper = values[0].bound.upper;
    if (!values[0].bound.contains(values[0].probability)) all_gates_passed = false;

    double lambda = 0.0;
    const linalg::CsrMatrix p = numeric::uniformized_transition_matrix(model.rates(), lambda);
    record.spmv = measure_spmv(p.transposed(), spmv_iters);
    if (!record.spmv.bitwise_identical) all_gates_passed = false;

    std::printf("%s: %zu states, explore %.0f ms, check %.0f ms, p=%.6f, "
                "blocked speedup %.2fx/%.2fx (1t/8t)%s\n",
                record.spec.c_str(), record.states, record.explore_ms, record.check_ms,
                record.probability, record.spmv.csr_ms_1t / record.spmv.blocked_ms_1t,
                record.spmv.csr_ms_8t / record.spmv.blocked_ms_8t,
                record.spmv.bitwise_identical ? "" : "  BITWISE MISMATCH");
    workloads.push_back(std::move(record));
  }

  // Steady-state detection on the stiff regime: an overloaded M/M/1/50 queue
  // at Lambda*t ~ 1e5 Poisson terms, where the chain reaches equilibrium
  // long before the Fox-Glynn right edge.
  models::Mm1kConfig stiff;
  stiff.capacity = 50;
  stiff.arrival_rate = 100.0;
  stiff.service_rate = 120.0;
  const core::Mrm queue = models::make_mm1k(stiff);
  const double stiff_t = smoke ? 50.0 : 500.0;
  std::vector<double> initial(queue.num_states(), 0.0);
  initial[0] = 1.0;

  numeric::TransientOptions detect_off;
  numeric::TransientOptions detect_on;
  detect_on.detect_steady_state = true;
  detect_on.steady_epsilon = 1e-10;
  const auto full_run =
      numeric::transient_distribution_checked(queue.rates(), initial, stiff_t, detect_off);
  const auto cut_run =
      numeric::transient_distribution_checked(queue.rates(), initial, stiff_t, detect_on);
  const double full_ms = best_of([&] {
    numeric::transient_distribution_checked(queue.rates(), initial, stiff_t, detect_off);
  });
  const double cut_ms = best_of([&] {
    numeric::transient_distribution_checked(queue.rates(), initial, stiff_t, detect_on);
  });
  double max_abs_diff = 0.0;
  for (std::size_t s = 0; s < full_run.values.size(); ++s) {
    max_abs_diff = std::max(max_abs_diff, std::abs(full_run.values[s] - cut_run.values[s]));
  }
  // Threshold verdicts must agree: classify every state against p >= 0.02
  // (a line several queue-length states straddle closely) using each run's
  // rigorous band; disagreement fails the bench.
  const double threshold = 0.02;
  bool verdicts_agree = true;
  const double full_band = detect_off.epsilon;
  const double cut_band = detect_on.epsilon + cut_run.steady_error;
  for (std::size_t s = 0; s < full_run.values.size(); ++s) {
    const bool full_above = full_run.values[s] + full_band >= threshold;
    const bool cut_above = cut_run.values[s] + cut_band >= threshold;
    if (full_above != cut_above) verdicts_agree = false;
  }
  if (!verdicts_agree) all_gates_passed = false;
  if (!cut_run.steady_state_detected && !smoke) all_gates_passed = false;
  std::printf("steady-state detection: %zu -> %zu terms (saved %zu), "
              "max diff %.2e, verdicts %s\n",
              full_run.series_terms, cut_run.series_terms,
              full_run.series_terms - cut_run.series_terms, max_abs_diff,
              verdicts_agree ? "agree" : "DISAGREE");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_large: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"timings are best-of-%d wall clock; peak RSS is the "
               "process-wide high-water mark after each build (monotone across rows); "
               "blocked-vs-CSR speedups measure the same gather product repacked into "
               "SELL-C chunks, gated on bitwise-identical outputs; when "
               "hardware_threads is below a worker count that column measures "
               "dispatch overhead, not scaling\",\n",
               g_repeats);
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    print_workload(out, workloads[i], i + 1 == workloads.size());
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"steady_state_detection\": {\n");
  std::fprintf(out, "    \"model\": \"mm1k(capacity=50, arrival=100, service=120)\",\n");
  std::fprintf(out, "    \"t\": %g,\n", stiff_t);
  std::fprintf(out, "    \"steady_epsilon\": %.1e,\n", detect_on.steady_epsilon);
  std::fprintf(out, "    \"series_terms_full\": %zu,\n", full_run.series_terms);
  std::fprintf(out, "    \"series_terms_detected\": %zu,\n", cut_run.series_terms);
  std::fprintf(out, "    \"terms_saved\": %zu,\n",
               full_run.series_terms - cut_run.series_terms);
  std::fprintf(out, "    \"detected\": %s,\n",
               cut_run.steady_state_detected ? "true" : "false");
  std::fprintf(out, "    \"full_ms\": %.2f,\n    \"detected_ms\": %.2f,\n", full_ms, cut_ms);
  std::fprintf(out, "    \"speedup\": %.2f,\n", full_ms / cut_ms);
  std::fprintf(out, "    \"reported_steady_error\": %.3e,\n", cut_run.steady_error);
  std::fprintf(out, "    \"max_abs_diff_vs_full\": %.3e,\n", max_abs_diff);
  std::fprintf(out, "    \"threshold_verdicts_agree\": %s\n  },\n",
               verdicts_agree ? "true" : "false");
  std::fprintf(out, "  \"all_bitwise_gates_passed\": %s\n}\n",
               all_gates_passed ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_gates_passed ? 0 : 1;
}
