// google-benchmark microbenchmarks for the numerical kernels: Omega
// recursion and its forward-flow chain over an absorbed tail, the class-DP
// level fold's ordering, Poisson masses, Gauss-Seidel sweeps, BSCC detection, the DFPG
// path explorer, one discretization step-sweep, serial-vs-parallel scaling
// cases for the thread-pool layer (Arg = thread count; run `bench_parallel`
// for the JSON scaling record), and the observability-layer overhead
// benches (BM_Stats*, Arg = stats enabled). After an unfiltered benchmark
// run, main() re-runs one representative DFPG + discretization workload with
// statistics collection on and writes the registry to
// BENCH_kernels_stats.json; a run with --benchmark_filter writes nothing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "graph/scc.hpp"
#include "linalg/gauss_seidel.hpp"
#include "models/mm1k.hpp"
#include "models/random_mrm.hpp"
#include "models/tmr.hpp"
#include "numeric/conditional.hpp"
#include "numeric/discretization.hpp"
#include "numeric/omega.hpp"
#include "numeric/poisson.hpp"
#include "numeric/run_merge.hpp"
#include "numeric/signature_model.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "oracle/path_explorer.hpp"
#include "oracle/transient_forward.hpp"

namespace {

using namespace csrlmrm;

void BM_OmegaEvaluate(benchmark::State& state) {
  const auto count = static_cast<std::uint32_t>(state.range(0));
  const numeric::SpacingCounts counts{count, count, count, count};
  for (auto _ : state) {
    // Fresh evaluator and column per iteration: the full forward flow plus
    // its construction and first allocation.
    numeric::OmegaEvaluator evaluator({5.0, 3.0, 1.0, 0.0}, 1.7);
    std::vector<double> column(evaluator.flow_length(counts));
    numeric::OmegaWork work;
    benchmark::DoNotOptimize(evaluator.flow_start(counts, column.data(), work));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OmegaEvaluate)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_OmegaRequery(benchmark::State& state) {
  // One evaluator and one column reused: the steady state of a class-DP
  // harvest fold, which allocates nothing per evaluation.
  const numeric::OmegaEvaluator evaluator({5.0, 3.0, 1.0, 0.0}, 1.7);
  const numeric::SpacingCounts counts{32, 32, 32, 32};
  std::vector<double> column(evaluator.flow_length(counts));
  numeric::OmegaWork work;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.flow_start(counts, column.data(), work));
  }
}
BENCHMARK(BM_OmegaRequery);

void BM_OmegaAbsorbedTail(benchmark::State& state) {
  // One absorbed class-DP tail of 30 levels: Omega(r', k + m * 1_last) for
  // m = 0..29, the zero-coefficient class gaining one unit per level.
  // Arg 0 runs a full flow_start at every level, as the harvest fold did
  // for absorbed rows; Arg 1 runs the chain (one flow_start, then one
  // flow_extend per level), as the tails do.
  const numeric::OmegaEvaluator evaluator({5.0, 3.0, 1.0, 0.0}, 1.7);
  const numeric::SpacingCounts start{8, 8, 8, 8};
  const bool chain = state.range(0) == 1;
  numeric::OmegaWork work;
  // The greater side (5, 3) does not grow along the tail.
  std::vector<double> column(evaluator.flow_length(start));
  numeric::SpacingCounts counts;
  for (auto _ : state) {
    counts = start;
    double sum = 0.0;
    if (chain) {
      double value = evaluator.flow_start(counts, column.data(), work);
      sum += value;
      for (int level = 1; level < 30; ++level) {
        ++counts.back();
        value = evaluator.flow_extend(counts, column.data(), value, work);
        sum += value;
      }
    } else {
      for (int level = 0; level < 30; ++level) {
        sum += evaluator.flow_start(counts, column.data(), work);
        ++counts.back();
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_OmegaAbsorbedTail)->Arg(0)->Arg(1);

/// The (state, signature) keys of one class-DP level's raw successor rows
/// on the variable-rate 11-module NMR, as class_explorer.cpp lays them out:
/// the engine's key sweep from state 0 replayed without weights or pruning,
/// each level folded and kept sorted by key, the next level expanded edge
/// by edge.
struct LevelRows {
  std::vector<core::StateIndex> states;
  std::vector<std::uint32_t> sigs;  // row i at [i * sig_len, (i + 1) * sig_len)
  std::size_t sig_len = 0;

  bool less(std::uint32_t a, std::uint32_t b) const {
    return std::lexicographical_compare(sigs.begin() + a * sig_len,
                                        sigs.begin() + (a + 1) * sig_len,
                                        sigs.begin() + b * sig_len,
                                        sigs.begin() + (b + 1) * sig_len);
  }
};

LevelRows nmr_level_rows(std::size_t level) {
  const core::Mrm model = models::make_tmr(models::chapter5_nmr_config(true));
  const std::size_t n = model.num_states();
  const numeric::SignatureModel sig(model, std::vector<bool>(n, false),
                                    std::vector<bool>(n, false));
  const std::size_t num_k = sig.distinct_state_rewards.size();
  LevelRows frontier;
  frontier.sig_len = num_k + 2;
  frontier.states = {0};
  frontier.sigs.assign(frontier.sig_len, 0u);
  ++frontier.sigs[sig.reward_class[0]];
  numeric::BucketSorter sorter;
  numeric::PageBuffer<std::uint32_t> order;
  for (std::size_t l = 0;; ++l) {
    LevelRows raw;
    raw.sig_len = frontier.sig_len;
    for (std::size_t row = 0; row < frontier.states.size(); ++row) {
      for (const numeric::SignatureTransition& edge : sig.adjacency[frontier.states[row]]) {
        raw.states.push_back(edge.target);
        const std::size_t at = raw.sigs.size();
        raw.sigs.insert(raw.sigs.end(), frontier.sigs.begin() + row * frontier.sig_len,
                        frontier.sigs.begin() + (row + 1) * frontier.sig_len);
        ++raw.sigs[at + sig.reward_class[edge.target]];
        const double impulse = sig.distinct_impulse_rewards[edge.impulse_class];
        if (!core::exactly_zero(impulse)) {
          std::uint64_t bits = (std::uint64_t{raw.sigs[at + num_k]} << 32) | raw.sigs[at + num_k + 1];
          double total = 0.0;
          std::memcpy(&total, &bits, sizeof total);
          total = numeric::canonical_threshold(total + impulse);
          std::memcpy(&bits, &total, sizeof bits);
          raw.sigs[at + num_k] = static_cast<std::uint32_t>(bits >> 32);
          raw.sigs[at + num_k + 1] = static_cast<std::uint32_t>(bits);
        }
      }
    }
    if (l == level) return raw;
    sorter.sort(raw.states.data(), raw.states.size(), n, order,
                [&](std::uint32_t a, std::uint32_t b) { return raw.less(a, b); });
    frontier.states.clear();
    frontier.sigs.clear();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t row = order[i];
      if (i > 0 && raw.states[order[i - 1]] == raw.states[row] && !raw.less(order[i - 1], row)) {
        continue;  // equal key: folds into the previous class
      }
      frontier.states.push_back(raw.states[row]);
      frontier.sigs.insert(frontier.sigs.end(), raw.sigs.begin() + row * raw.sig_len,
                           raw.sigs.begin() + (row + 1) * raw.sig_len);
    }
  }
}

/// The fold's ordering of one NMR level (level 9: 10 194 raw rows of 15
/// signature words in 11 target-state buckets, 36 presorted runs):
/// Arg 0 is the comparison sort the fold used to run (std::stable_sort of
/// row indices by state, then signature), Arg 1 the counting pass by state
/// plus run merge it runs now. Both produce the same permutation, checked
/// before timing.
void BM_ClassDpLevelFold(benchmark::State& state) {
  static const LevelRows rows = nmr_level_rows(9);
  const std::size_t n = rows.states.size();
  const auto key_less = [&](std::uint32_t a, std::uint32_t b) {
    if (rows.states[a] != rows.states[b]) return rows.states[a] < rows.states[b];
    return rows.less(a, b);
  };
  const auto sig_less = [&](std::uint32_t a, std::uint32_t b) { return rows.less(a, b); };
  const std::size_t num_states = *std::max_element(rows.states.begin(), rows.states.end()) + 1;
  std::vector<std::uint32_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(), key_less);
  numeric::BucketSorter sorter;
  numeric::PageBuffer<std::uint32_t> order;
  sorter.sort(rows.states.data(), n, num_states, order, sig_less);
  if (!std::equal(expected.begin(), expected.end(), order.begin())) {
    state.SkipWithError("run merge and std::stable_sort disagree");
    return;
  }
  std::vector<std::uint32_t> indices(n);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      std::iota(indices.begin(), indices.end(), 0u);
      std::stable_sort(indices.begin(), indices.end(), key_less);
      benchmark::DoNotOptimize(indices.data());
    } else {
      sorter.sort(rows.states.data(), n, num_states, order, sig_less);
      benchmark::DoNotOptimize(order.data());
    }
  }
  state.counters["rows"] = static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ClassDpLevelFold)->Arg(0)->Arg(1);

void BM_PoissonPmf(benchmark::State& state) {
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::poisson_pmf(n++ % 256, 42.0));
  }
}
BENCHMARK(BM_PoissonPmf);

void BM_GaussSeidelSweeps(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < n) builder.add(i, i + 1, -1.0);
  }
  const auto matrix = builder.build();
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    std::vector<double> x(n, 0.0);
    benchmark::DoNotOptimize(linalg::gauss_seidel_solve(matrix, b, x));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GaussSeidelSweeps)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_BsccDetection(benchmark::State& state) {
  models::RandomMrmConfig config;
  config.num_states = static_cast<std::size_t>(state.range(0));
  config.edge_probability = 8.0 / static_cast<double>(state.range(0));  // sparse
  const core::Mrm model = models::make_random_mrm(99, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bottom_sccs(model.rates().matrix()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BsccDetection)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_DfpgTmrUntil(benchmark::State& state) {
  const double t = static_cast<double>(state.range(0));
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto sup = model.labels().states_with("Sup");
  const auto failed = model.labels().states_with("failed");
  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    absorb[s] = !sup[s] || failed[s];
    dead[s] = !sup[s] && !failed[s];
  }
  numeric::UniformizationUntilEngine engine(core::make_absorbing(model, absorb), failed, dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute(0, t, 3000.0, options));
  }
}
BENCHMARK(BM_DfpgTmrUntil)->Arg(50)->Arg(100)->Arg(200)->Arg(300);

void BM_DiscretizationTmrUntil(benchmark::State& state) {
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto sup = model.labels().states_with("Sup");
  const auto failed = model.labels().states_with("failed");
  std::vector<bool> absorb(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) absorb[s] = !sup[s] || failed[s];
  const core::Mrm transformed = core::make_absorbing(model, absorb);
  numeric::DiscretizationOptions options;
  // Coarse grid (a microbenchmark, not an accuracy run); 0.5 still divides
  // the TMR repair impulses (2.5 / 5).
  options.step = 0.5;
  const double t = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        numeric::until_probability_discretization(transformed, failed, 0, t, 3000.0, options));
  }
}
BENCHMARK(BM_DiscretizationTmrUntil)->Arg(50)->Arg(100)->Arg(200);

// --- Serial-vs-parallel scaling (Arg = worker threads) ---------------------

void BM_DiscretizationMm1kSweepThreads(benchmark::State& state) {
  models::Mm1kConfig config;
  config.capacity = 64;
  const core::Mrm model = models::make_mm1k(config);
  const auto full = model.labels().states_with("full");
  numeric::DiscretizationOptions options;
  options.step = 0.25;  // d * max exit rate = 0.45; divides the wakeup impulse
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        numeric::until_probability_discretization(model, full, 0, 50.0, 200.0, options));
  }
}
BENCHMARK(BM_DiscretizationMm1kSweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TransientMm1kThreads(benchmark::State& state) {
  models::Mm1kConfig config;
  config.capacity = 4096;  // large state space: row-parallel SpMV territory
  const core::Mrm model = models::make_mm1k(config);
  numeric::TransientOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        numeric::transient_distribution_from(model.rates(), 0, 100.0, options));
  }
}
BENCHMARK(BM_TransientMm1kThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_UntilFanoutMm1kThreads(benchmark::State& state) {
  models::Mm1kConfig config;
  config.capacity = 16;
  const core::Mrm model = models::make_mm1k(config);
  const auto busy = model.labels().states_with("busy");
  const auto full = model.labels().states_with("full");
  checker::CheckerOptions options;
  options.until_method = checker::UntilMethod::kDiscretization;
  options.discretization.step = 0.25;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::until_probabilities(
        model, busy, full, logic::Interval(0.0, 20.0), logic::Interval(0.0, 60.0), options));
  }
}
BENCHMARK(BM_UntilFanoutMm1kThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SteadyStateNmr(benchmark::State& state) {
  models::TmrConfig config;
  config.num_modules = static_cast<unsigned>(state.range(0));
  const core::Mrm model = models::make_tmr(config);
  const auto failed = model.labels().states_with("failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::steady_state_probability_of_set(model, failed));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SteadyStateNmr)->Arg(3)->Arg(11)->Arg(41)->Arg(101);

// --- Observability overhead (Arg: 0 = stats disabled, 1 = enabled) ---------

/// RAII enable/disable around a benchmark body; resets the registry on exit
/// so repeated runs don't accumulate into one snapshot.
struct StatsMode {
  explicit StatsMode(bool enabled) { obs::set_stats_enabled(enabled); }
  ~StatsMode() {
    obs::set_stats_enabled(false);
    obs::StatsRegistry::global().reset();
  }
};

void BM_StatsCounterAdd(benchmark::State& state) {
  const StatsMode mode(state.range(0) != 0);
  for (auto _ : state) {
    obs::counter_add("bench.counter");
  }
}
BENCHMARK(BM_StatsCounterAdd)->Arg(0)->Arg(1);

void BM_StatsScopedTimer(benchmark::State& state) {
  const StatsMode mode(state.range(0) != 0);
  for (auto _ : state) {
    obs::ScopedTimer timer("bench.scope");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StatsScopedTimer)->Arg(0)->Arg(1);

/// The overhead claim that matters: a real instrumented kernel with
/// collection off must cost the same as before the instrumentation existed
/// (the disabled checks are one relaxed atomic load per call site).
void BM_StatsInstrumentedGaussSeidel(benchmark::State& state) {
  const StatsMode mode(state.range(0) != 0);
  constexpr std::size_t n = 512;
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < n) builder.add(i, i + 1, -1.0);
  }
  const auto matrix = builder.build();
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    std::vector<double> x(n, 0.0);
    benchmark::DoNotOptimize(linalg::gauss_seidel_solve(matrix, b, x));
  }
}
BENCHMARK(BM_StatsInstrumentedGaussSeidel)->Arg(0)->Arg(1);

void BM_StatsInstrumentedDfpg(benchmark::State& state) {
  const StatsMode mode(state.range(0) != 0);
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto sup = model.labels().states_with("Sup");
  const auto failed = model.labels().states_with("failed");
  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    absorb[s] = !sup[s] || failed[s];
    dead[s] = !sup[s] && !failed[s];
  }
  numeric::UniformizationUntilEngine engine(core::make_absorbing(model, absorb), failed, dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute(0, 100.0, 3000.0, options));
  }
}
BENCHMARK(BM_StatsInstrumentedDfpg)->Arg(0)->Arg(1);

/// One representative instrumented workload (the TMR DFPG until plus its
/// discretization counterpart) whose statistics snapshot becomes
/// BENCH_kernels_stats.json.
void write_stats_record(const char* path) {
  obs::set_stats_enabled(true);
  obs::StatsRegistry::global().reset();

  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto sup = model.labels().states_with("Sup");
  const auto failed = model.labels().states_with("failed");
  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    absorb[s] = !sup[s] || failed[s];
    dead[s] = !sup[s] && !failed[s];
  }
  const core::Mrm transformed = core::make_absorbing(model, absorb);
  numeric::UniformizationUntilEngine engine(transformed, failed, dead);
  numeric::PathExplorerOptions uopts;
  uopts.truncation_probability = 1e-11;
  engine.compute(0, 100.0, 3000.0, uopts);
  numeric::DiscretizationOptions dopts;
  dopts.step = 0.5;
  numeric::until_probability_discretization(transformed, failed, 0, 100.0, 3000.0, dopts);
  checker::steady_state_probability_of_set(model, failed);

  const std::string json = obs::StatsRegistry::global().to_json();
  obs::StatsRegistry::global().reset();
  obs::set_stats_enabled(false);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path);
    return;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string filter = benchmark::GetBenchmarkFilter();
  const bool unfiltered = filter.empty() || filter == "." || filter == ".*" || filter == "all";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (unfiltered) write_stats_record("BENCH_kernels_stats.json");
  return 0;
}
