// Serial/parallel equivalence and determinism for the thread-pool layer and
// every kernel that fans out over it: the discretization level sweep, the
// uniformization series (transient distribution / occupation times), and
// full per-state Until checks through the checker. All parallel kernels are
// designed so that each output element is produced by exactly one task in
// the same floating-point order as the serial code, so the assertions can
// demand bitwise equality, stronger than the 1e-12 acceptance bound.
//
// Suite names all start with "Parallel" so `ctest -L tsan` (a ThreadSanitizer
// build with CSRLMRM_SANITIZE=thread) can select exactly this file via
// --gtest_filter=Parallel*.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "checker/until.hpp"
#include "core/transform.hpp"
#include "models/random_mrm.hpp"
#include "numeric/discretization.hpp"
#include "numeric/transient.hpp"
#include "oracle/transient_forward.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm {
namespace {

constexpr std::uint32_t kNumModels = 50;
const unsigned kThreadCounts[] = {1, 2, 8};

models::RandomMrmConfig small_config() {
  models::RandomMrmConfig config;
  config.num_states = 8;
  config.max_rate = 1.0;
  return config;
}

/// Phi/Psi masks that are never vacuous, mirroring the cross-validation
/// suite's construction.
void make_masks(const core::Mrm& model, std::uint32_t seed, std::vector<bool>& phi,
                std::vector<bool>& psi) {
  phi = model.labels().states_with("a");
  psi = model.labels().states_with("b");
  bool any_psi = false;
  for (auto v : psi) any_psi = any_psi || v;
  if (!any_psi) psi[seed % model.num_states()] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : kThreadCounts) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    parallel::parallel_for(hits.size(), threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << "i=" << i;
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel::parallel_for(100, 4,
                                      [&](std::size_t begin, std::size_t) {
                                        if (begin > 0) throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> sum{0};
  parallel::parallel_for(10, 4, [&](std::size_t begin, std::size_t end) {
    sum += static_cast<int>(end - begin);
  });
  EXPECT_EQ(sum, 10);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  std::atomic<int> inner_regions{0};
  parallel::parallel_for(8, 4, [&](std::size_t outer_begin, std::size_t outer_end) {
    EXPECT_TRUE(parallel::in_parallel_region());
    for (std::size_t i = outer_begin; i < outer_end; ++i) {
      parallel::parallel_for(4, 4, [&](std::size_t begin, std::size_t end) {
        // Inline execution hands the nested body the whole range at once.
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 4u);
        ++inner_regions;
      });
    }
  });
  EXPECT_EQ(inner_regions, 8);
  EXPECT_FALSE(parallel::in_parallel_region());
}

TEST(ParallelReduce, DeterministicChunkOrderSum) {
  std::vector<double> values(10007);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = std::sin(double(i)) * 1e-3;
  const auto chunk_sum = [&](std::size_t begin, std::size_t end, double acc) {
    for (std::size_t i = begin; i < end; ++i) acc += values[i];
    return acc;
  };
  const auto join = [](double a, double b) { return a + b; };
  for (const unsigned threads : kThreadCounts) {
    const double once =
        parallel::parallel_reduce(values.size(), threads, 0.0, chunk_sum, join);
    const double again =
        parallel::parallel_reduce(values.size(), threads, 0.0, chunk_sum, join);
    EXPECT_EQ(once, again) << "threads=" << threads;  // bitwise, fixed chunking
    const double serial = chunk_sum(0, values.size(), 0.0);
    EXPECT_NEAR(once, serial, 1e-12);
  }
}

TEST(ParallelDefaults, ThreadCountResolution) {
  parallel::set_default_thread_count(3);
  EXPECT_EQ(parallel::resolve_thread_count(0), 3u);
  EXPECT_EQ(parallel::resolve_thread_count(7), 7u);
  // Tiny default-threaded workloads stay serial; explicit requests win.
  EXPECT_EQ(parallel::choose_thread_count(0, 10), 1u);
  EXPECT_EQ(parallel::choose_thread_count(5, 10), 5u);
  parallel::set_default_thread_count(0);
}

TEST(ParallelDiscretization, MatchesSerialOnRandomMrms) {
  numeric::DiscretizationOptions serial;
  serial.step = 1.0 / 16.0;  // max exit rate <= 7 -> d*E < 1; divides impulses (k/4)
  serial.threads = 1;
  for (std::uint32_t seed = 0; seed < kNumModels; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, small_config());
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    const auto reference =
        numeric::until_probability_discretization(model, psi, 0, 2.0, 3.0, serial);
    for (const unsigned threads : {2u, 8u}) {
      numeric::DiscretizationOptions options = serial;
      options.threads = threads;
      const auto result =
          numeric::until_probability_discretization(model, psi, 0, 2.0, 3.0, options);
      EXPECT_EQ(result.probability, reference.probability)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(result.time_steps, reference.time_steps);
      EXPECT_EQ(result.reward_levels, reference.reward_levels);
    }
  }
}

TEST(ParallelDiscretization, DeterministicAcrossRepeatedRuns) {
  const core::Mrm model = models::make_random_mrm(7, small_config());
  std::vector<bool> phi, psi;
  make_masks(model, 7, phi, psi);
  for (const unsigned threads : kThreadCounts) {
    numeric::DiscretizationOptions options;
    options.step = 1.0 / 16.0;
    options.threads = threads;
    const auto first =
        numeric::until_probability_discretization(model, psi, 0, 2.0, 3.0, options);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again =
          numeric::until_probability_discretization(model, psi, 0, 2.0, 3.0, options);
      EXPECT_EQ(again.probability, first.probability)
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

TEST(ParallelTransient, DistributionMatchesSerialOnRandomMrms) {
  for (std::uint32_t seed = 0; seed < kNumModels; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, small_config());
    numeric::TransientOptions serial;
    serial.threads = 1;
    const auto reference =
        numeric::transient_distribution_from(model.rates(), 0, 1.5, serial);
    for (const unsigned threads : {2u, 8u}) {
      numeric::TransientOptions options;
      options.threads = threads;
      const auto result =
          numeric::transient_distribution_from(model.rates(), 0, 1.5, options);
      ASSERT_EQ(result.size(), reference.size());
      for (std::size_t s = 0; s < result.size(); ++s) {
        EXPECT_NEAR(result[s], reference[s], 1e-12)
            << "seed=" << seed << " threads=" << threads << " s=" << s;
      }
    }
  }
}

TEST(ParallelTransient, OccupationTimesMatchSerial) {
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, small_config());
    std::vector<double> g(model.num_states(), 0.0);
    for (std::size_t s = 0; s < g.size(); ++s) g[s] = model.state_reward(s);
    numeric::TransientOptions serial;
    serial.threads = 1;
    const auto reference = numeric::occupation_backward(model.rates(), g, 2.0, serial);
    numeric::TransientOptions options;
    options.threads = 8;
    const auto result = numeric::occupation_backward(model.rates(), g, 2.0, options);
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t s = 0; s < result.size(); ++s) {
      EXPECT_EQ(result[s], reference[s]) << "seed=" << seed << " s=" << s;
    }
  }
}

TEST(ParallelTransient, BackwardSeriesMatchesSingleForwardRuns) {
  // Column j of the backward series (u0 = e_j) holds Pr{X(t) = j | X(0) = s}
  // for every start s: the forward distributions, read transposed. Every
  // thread count reproduces the serial backward values bitwise.
  const core::Mrm model = models::make_random_mrm(3, small_config());
  const std::size_t n = model.num_states();
  numeric::TransientOptions serial;
  serial.threads = 1;
  std::vector<std::vector<double>> forward(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    forward[s] = numeric::transient_distribution_from(model.rates(), s, 1.5, serial);
  }
  std::vector<std::vector<double>> reference(n);
  for (const unsigned threads : kThreadCounts) {
    numeric::TransientOptions options;
    options.threads = threads;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> indicator(n, 0.0);
      indicator[j] = 1.0;
      const auto column =
          numeric::transient_backward(model.rates(), std::move(indicator), 1.5, options).values;
      if (threads == 1) reference[j] = column;
      for (core::StateIndex s = 0; s < n; ++s) {
        EXPECT_NEAR(column[s], forward[s][j], 1e-12)
            << "threads=" << threads << " start=" << s << " j=" << j;
        EXPECT_EQ(column[s], reference[j][s]) << "threads=" << threads << " start=" << s;
      }
    }
  }
}

/// Full Until checks (checker layer, both engines) on random MRMs: the
/// parallel per-state fan-out must reproduce the serial evaluation.
TEST(ParallelUntil, FullChecksMatchSerialOnRandomMrms) {
  for (std::uint32_t seed = 0; seed < kNumModels; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, small_config());
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);

    checker::CheckerOptions serial;
    serial.threads = 1;
    serial.until_method = (seed % 2 == 0) ? checker::UntilMethod::kUniformization
                                          : checker::UntilMethod::kDiscretization;
    serial.uniformization.truncation_probability = 1e-9;
    serial.discretization.step = 1.0 / 16.0;
    const logic::Interval time_bound(0.0, 1.0);
    const logic::Interval reward_bound(0.0, 3.0);
    const auto reference =
        checker::until_probabilities(model, phi, psi, time_bound, reward_bound, serial);

    for (const unsigned threads : {2u, 8u}) {
      checker::CheckerOptions options = serial;
      options.threads = threads;
      const auto result =
          checker::until_probabilities(model, phi, psi, time_bound, reward_bound, options);
      ASSERT_EQ(result.size(), reference.size());
      for (std::size_t s = 0; s < result.size(); ++s) {
        EXPECT_NEAR(result[s].probability, reference[s].probability, 1e-12)
            << "seed=" << seed << " threads=" << threads << " s=" << s;
        EXPECT_NEAR(result[s].error_bound, reference[s].error_bound, 1e-12)
            << "seed=" << seed << " threads=" << threads << " s=" << s;
      }
    }
  }
}

TEST(ParallelUntil, TimeBoundedAndIntervalPathsMatchSerial) {
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, small_config());
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    checker::CheckerOptions serial;
    serial.threads = 1;
    checker::CheckerOptions wide = serial;
    wide.threads = 8;
    // P1 (time-bounded, reward-trivial) and P1' (interval) reductions, which
    // exercise the batched transient fan-out.
    for (const auto& time_bound : {logic::Interval(0.0, 2.0), logic::Interval(0.5, 2.0)}) {
      const auto reference = checker::until_probabilities(model, phi, psi, time_bound,
                                                          logic::Interval{}, serial);
      const auto result =
          checker::until_probabilities(model, phi, psi, time_bound, logic::Interval{}, wide);
      for (std::size_t s = 0; s < result.size(); ++s) {
        EXPECT_NEAR(result[s].probability, reference[s].probability, 1e-12)
            << "seed=" << seed << " s=" << s;
      }
    }
  }
}

TEST(ParallelUntil, DeterministicAcrossRepeatedRuns) {
  const core::Mrm model = models::make_random_mrm(11, small_config());
  std::vector<bool> phi, psi;
  make_masks(model, 11, phi, psi);
  for (const unsigned threads : kThreadCounts) {
    checker::CheckerOptions options;
    options.threads = threads;
    options.discretization.step = 1.0 / 16.0;
    options.until_method = checker::UntilMethod::kDiscretization;
    const auto first = checker::until_probabilities(model, phi, psi, logic::Interval(0.0, 2.0),
                                                    logic::Interval(0.0, 3.0), options);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again = checker::until_probabilities(
          model, phi, psi, logic::Interval(0.0, 2.0), logic::Interval(0.0, 3.0), options);
      for (std::size_t s = 0; s < first.size(); ++s) {
        EXPECT_EQ(again[s].probability, first[s].probability)
            << "threads=" << threads << " repeat=" << repeat << " s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace csrlmrm
