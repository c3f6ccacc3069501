// Serial-vs-parallel scaling record for the thread-pool layer, written to
// BENCH_parallel.json (CWD, or the path given as argv[1]).
//
// Three workloads on MM1K-sized models:
//   1. discretization_sweep  — one Tijms-Veldman until evaluation (the
//      per-state level sweep of Algorithm 4.6), including a re-created
//      pre-optimization "seed" kernel (no hoisting, no zero-row skip, no
//      contiguous axpy, no parallelism) so the restructuring gain is
//      recorded alongside the thread scaling;
//   2. transient_distribution — the Fox-Glynn uniformization series with the
//      row-parallel SpMV on a large queue;
//   3. checker_until_fanout  — a full per-state Until check through the
//      checker layer.
//
// Every parallel result is compared against the serial run and the maximum
// absolute deviation is recorded (the engines are designed to be bitwise
// identical across thread counts, so the expectation is 0.0). Timings are
// the best of `kRepeats` wall-clock runs. hardware_threads is recorded so
// single-core CI boxes are not mistaken for scaling regressions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "checker/until.hpp"
#include "models/mm1k.hpp"
#include "numeric/discretization.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "oracle/transient_forward.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace csrlmrm;

// Best-of repetition count; `--smoke` (the bench-smoke ctest lane) drops it
// to 1 and shrinks every model so the binary finishes in well under a second.
int g_repeats = 3;
const unsigned kThreadCounts[] = {1, 2, 4, 8};

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

/// The discretization stepper exactly as the seed shipped it: global grid
/// refill, stay/edge checks inside the time loop, shifted indexing in the
/// inner loop, no zero-mass skipping, single-threaded. Used as the baseline
/// for the kernel-restructuring speedup.
double seed_discretization(const core::Mrm& model, const std::vector<bool>& psi,
                           core::StateIndex start, double t, double r, double d) {
  const std::size_t n = model.num_states();
  const std::size_t time_steps = static_cast<std::size_t>(std::llround(t / d));
  std::vector<std::size_t> residence_shift(n, 0);
  for (core::StateIndex s = 0; s < n; ++s) {
    residence_shift[s] = static_cast<std::size_t>(std::llround(model.state_reward(s)));
  }
  const std::size_t levels = static_cast<std::size_t>(std::floor(r / d + 1e-9)) + 1;

  struct Incoming {
    core::StateIndex source;
    double probability;
    std::size_t shift;
  };
  std::vector<std::vector<Incoming>> incoming(n);
  for (core::StateIndex s_from = 0; s_from < n; ++s_from) {
    for (const auto& e : model.rates().transitions(s_from)) {
      const double impulse = model.impulse_reward(s_from, e.col);
      incoming[e.col].push_back(
          {s_from, e.value * d,
           residence_shift[s_from] + static_cast<std::size_t>(std::llround(impulse / d))});
    }
  }

  std::vector<double> cur(n * levels, 0.0);
  std::vector<double> next(n * levels, 0.0);
  if (residence_shift[start] < levels) cur[start * levels + residence_shift[start]] = 1.0;
  std::vector<double> stay(n, 0.0);
  for (core::StateIndex s = 0; s < n; ++s) stay[s] = 1.0 - model.rates().exit_rate(s) * d;

  for (std::size_t step = 1; step < time_steps; ++step) {
    std::fill(next.begin(), next.end(), 0.0);
    for (core::StateIndex s = 0; s < n; ++s) {
      double* next_row = next.data() + s * levels;
      const double* cur_row = cur.data() + s * levels;
      const std::size_t shift = residence_shift[s];
      if (stay[s] > 0.0) {
        for (std::size_t k = shift; k < levels; ++k) next_row[k] += cur_row[k - shift] * stay[s];
      }
      for (const Incoming& in : incoming[s]) {
        const double* src_row = cur.data() + in.source * levels;
        for (std::size_t k = in.shift; k < levels; ++k) {
          next_row[k] += src_row[k - in.shift] * in.probability;
        }
      }
    }
    cur.swap(next);
  }

  double probability = 0.0;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (!psi[s]) continue;
    const double* row = cur.data() + s * levels;
    for (std::size_t k = 0; k < levels; ++k) probability += row[k];
  }
  return probability;
}

struct CaseRecord {
  std::string name;
  std::string model;
  double seed_baseline_ms = -1.0;  // < 0 = no seed-kernel baseline for this case
  std::vector<double> timings_ms;  // one per kThreadCounts entry
  double max_abs_diff_vs_serial = 0.0;
  std::string stats_json;  // obs stats of one instrumented evaluation
};

/// Runs `fn` once with statistics collection on and returns the registry as
/// a JSON blob. Collection stays off for the timed runs (the timings must
/// keep measuring the engines, not the instrumentation).
template <typename Fn>
std::string capture_stats(Fn&& fn) {
  obs::set_stats_enabled(true);
  obs::StatsRegistry::global().reset();
  fn();
  std::string json = obs::StatsRegistry::global().to_json();
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);
  return json;
}

/// Re-indents a serialized JSON document so it can be embedded as a member
/// of the hand-written BENCH_parallel.json at the given depth.
std::string indent_json(const std::string& json, const std::string& indent) {
  std::string out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    out.push_back(json[i]);
    if (json[i] == '\n' && i + 1 < json.size()) out += indent;
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  return out;
}

void print_case(std::FILE* out, const CaseRecord& record, bool last) {
  std::fprintf(out, "    {\n      \"name\": \"%s\",\n      \"model\": \"%s\",\n",
               record.name.c_str(), record.model.c_str());
  if (record.seed_baseline_ms >= 0.0) {
    std::fprintf(out, "      \"seed_kernel_ms\": %.3f,\n", record.seed_baseline_ms);
    std::fprintf(out, "      \"speedup_vs_seed_kernel_serial\": %.2f,\n",
                 record.seed_baseline_ms / record.timings_ms[0]);
    std::fprintf(out, "      \"speedup_vs_seed_kernel_at_4_threads\": %.2f,\n",
                 record.seed_baseline_ms / record.timings_ms[2]);
  }
  std::fprintf(out, "      \"timings_ms\": {");
  for (std::size_t i = 0; i < record.timings_ms.size(); ++i) {
    std::fprintf(out, "%s\"%u\": %.3f", i == 0 ? "" : ", ", kThreadCounts[i],
                 record.timings_ms[i]);
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "      \"speedup_at_4_threads\": %.2f,\n",
               record.timings_ms[0] / record.timings_ms[2]);
  std::fprintf(out, "      \"max_abs_diff_vs_serial\": %.3e,\n",
               record.max_abs_diff_vs_serial);
  std::fprintf(out, "      \"stats\": %s\n    }%s\n",
               indent_json(record.stats_json, "      ").c_str(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      g_repeats = 1;
    } else {
      out_path = argv[i];
    }
  }
  std::vector<CaseRecord> records;

  // Case 1: one discretization level sweep, MM1K capacity 64 (65 states).
  {
    models::Mm1kConfig config;
    config.capacity = smoke ? 16 : 64;
    const core::Mrm model = models::make_mm1k(config);
    const auto full = model.labels().states_with("full");
    const double t = smoke ? 10.0 : 50.0;
    const double r = smoke ? 40.0 : 200.0;
    const double d = 0.25;

    CaseRecord record;
    record.name = "discretization_sweep";
    record.model = smoke ? "mm1k(capacity=16), t=10, r=40, d=0.25"
                         : "mm1k(capacity=64), t=50, r=200, d=0.25";
    record.seed_baseline_ms =
        best_of([&] { seed_discretization(model, full, 0, t, r, d); });
    const double seed_probability = seed_discretization(model, full, 0, t, r, d);

    double serial_probability = 0.0;
    for (const unsigned threads : kThreadCounts) {
      numeric::DiscretizationOptions options;
      options.step = d;
      options.threads = threads;
      const auto result =
          numeric::until_probability_discretization(model, full, 0, t, r, options);
      if (threads == 1) serial_probability = result.probability;
      record.max_abs_diff_vs_serial = std::max(
          record.max_abs_diff_vs_serial, std::abs(result.probability - serial_probability));
      record.timings_ms.push_back(best_of(
          [&] { numeric::until_probability_discretization(model, full, 0, t, r, options); }));
    }
    record.max_abs_diff_vs_serial = std::max(
        record.max_abs_diff_vs_serial, std::abs(seed_probability - serial_probability));
    record.stats_json = capture_stats([&] {
      numeric::DiscretizationOptions options;
      options.step = d;
      options.threads = 4;
      numeric::until_probability_discretization(model, full, 0, t, r, options);
    });
    records.push_back(std::move(record));
    std::printf("discretization_sweep: seed kernel %.2f ms, serial %.2f ms, 4 threads %.2f ms\n",
                records.back().seed_baseline_ms, records.back().timings_ms[0],
                records.back().timings_ms[2]);
  }

  // Case 2: the uniformization series on a large queue.
  {
    models::Mm1kConfig config;
    config.capacity = smoke ? 256 : 4096;
    const core::Mrm model = models::make_mm1k(config);
    const double t = smoke ? 20.0 : 100.0;
    CaseRecord record;
    record.name = "transient_distribution";
    record.model = smoke ? "mm1k(capacity=256), t=20" : "mm1k(capacity=4096), t=100";

    std::vector<double> serial;
    for (const unsigned threads : kThreadCounts) {
      numeric::TransientOptions options;
      options.threads = threads;
      const auto result = numeric::transient_distribution_from(model.rates(), 0, t, options);
      if (threads == 1) serial = result;
      for (std::size_t s = 0; s < result.size(); ++s) {
        record.max_abs_diff_vs_serial =
            std::max(record.max_abs_diff_vs_serial, std::abs(result[s] - serial[s]));
      }
      record.timings_ms.push_back(best_of(
          [&] { numeric::transient_distribution_from(model.rates(), 0, t, options); }));
    }
    record.stats_json = capture_stats([&] {
      numeric::TransientOptions options;
      options.threads = 4;
      numeric::transient_distribution_from(model.rates(), 0, t, options);
    });
    records.push_back(std::move(record));
    std::printf("transient_distribution: serial %.2f ms, 4 threads %.2f ms\n",
                records.back().timings_ms[0], records.back().timings_ms[2]);
  }

  // Case 3: full per-state Until fan-out through the checker.
  {
    models::Mm1kConfig config;
    config.capacity = smoke ? 8 : 16;
    const core::Mrm model = models::make_mm1k(config);
    const auto busy = model.labels().states_with("busy");
    const auto full = model.labels().states_with("full");
    const logic::Interval time_bound(0.0, 20.0);
    const logic::Interval reward_bound(0.0, 60.0);
    CaseRecord record;
    record.name = "checker_until_fanout";
    record.model = smoke ? "mm1k(capacity=8), P[busy U[0,20][0,60] full], discretization d=0.25"
                         : "mm1k(capacity=16), P[busy U[0,20][0,60] full], discretization d=0.25";

    std::vector<checker::UntilValue> serial;
    for (const unsigned threads : kThreadCounts) {
      checker::CheckerOptions options;
      options.until_method = checker::UntilMethod::kDiscretization;
      options.discretization.step = 0.25;
      options.threads = threads;
      const auto result =
          checker::until_probabilities(model, busy, full, time_bound, reward_bound, options);
      if (threads == 1) serial = result;
      for (std::size_t s = 0; s < result.size(); ++s) {
        record.max_abs_diff_vs_serial = std::max(
            record.max_abs_diff_vs_serial,
            std::abs(result[s].probability - serial[s].probability));
      }
      record.timings_ms.push_back(best_of([&] {
        checker::until_probabilities(model, busy, full, time_bound, reward_bound, options);
      }));
    }
    record.stats_json = capture_stats([&] {
      checker::CheckerOptions options;
      options.until_method = checker::UntilMethod::kDiscretization;
      options.discretization.step = 0.25;
      options.threads = 4;
      checker::until_probabilities(model, busy, full, time_bound, reward_bound, options);
    });
    records.push_back(std::move(record));
    std::printf("checker_until_fanout: serial %.2f ms, 4 threads %.2f ms\n",
                records.back().timings_ms[0], records.back().timings_ms[2]);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_parallel: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned widest = 0;
  for (const unsigned threads : kThreadCounts) widest = std::max(widest, threads);
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n", hardware);
  // Machine-readable version of the prose caveat: consumers must not read
  // the per-thread timings as a scaling curve when the host could not
  // actually run the widest configuration on its own cores.
  std::fprintf(out, "  \"scaling_measured\": %s,\n",
               hardware >= widest ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"timings are best-of-%d wall clock; speedups above 1 require "
               "as many free cores as worker threads — when scaling_measured is false the "
               "host had fewer cores than the widest worker count and the parallel "
               "timings measure dispatch overhead, not scaling\",\n",
               g_repeats);
  std::fprintf(out, "  \"cases\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    print_case(out, records[i], i + 1 == records.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
