// Bitwise cross-validation of the blocked SELL-C SpMV (linalg/blocked_csr.hpp)
// against the reference CSR gather — the contract the header promises: the
// blocked kernel accumulates each row's products in the same scalar order as
// CsrMatrix::multiply_into, so the two agree bit for bit on every element at
// every thread count. Matrices are uniformized transition matrices of seeded
// random impulse-reward MRMs (the exact distribution the uniformization
// series feeds the kernel), plus shape edge cases around the chunk height.
// The series suites pin the same identity one level up: every series in
// numeric/transient.hpp runs the blocked kernel at every model size, and
// must equal a test-local series over the CSR gather (backward) or the CSR
// scatter (forward) bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "linalg/blocked_csr.hpp"
#include "linalg/csr_matrix.hpp"
#include "oracle/linalg_reference.hpp"
#include "oracle/random_mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/transient.hpp"
#include "oracle/transient_forward.hpp"

namespace csrlmrm {
namespace {

/// Deterministic pseudo-random vector in (0, 1): a 64-bit LCG mapped onto
/// the double mantissa, so inputs are reproducible without <random>.
std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n, 0.0);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    x[i] = static_cast<double>(state >> 11) * 0x1.0p-53 + 0x1.0p-60;
  }
  return x;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_blocked_matches(const linalg::CsrMatrix& matrix, std::uint64_t seed) {
  const linalg::BlockedCsrMatrix blocked(matrix);
  EXPECT_EQ(blocked.rows(), matrix.rows());
  EXPECT_EQ(blocked.cols(), matrix.cols());
  EXPECT_EQ(blocked.non_zeros(), matrix.non_zeros());

  const std::vector<double> x = random_vector(matrix.cols(), seed);
  std::vector<double> reference(matrix.rows(), 0.0);
  multiply_into(matrix, x, reference, 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<double> y(matrix.rows(), -1.0);
    blocked.multiply_into(x, y, threads);
    EXPECT_TRUE(bitwise_equal(y, reference))
        << matrix.rows() << "x" << matrix.cols() << " at " << threads << " threads";
  }
}

TEST(BlockedSpmv, BitwiseEqualsCsrGatherOnFiftyRandomMrms) {
  for (std::uint32_t seed = 0; seed < 50; ++seed) {
    models::RandomMrmConfig config;
    config.num_states = 8 + (seed % 40);  // spans partial and multiple chunks
    const core::Mrm model = models::make_random_mrm(seed, config);
    double lambda = 0.0;
    const linalg::CsrMatrix p =
        numeric::uniformized_transition_matrix(model.rates(), lambda);
    expect_blocked_matches(p, seed + 1);
    // The transposed matrix is what the forward series actually repacks.
    expect_blocked_matches(p.transposed(), seed + 101);
  }
}

TEST(BlockedSpmv, HandlesShapeEdgeCases) {
  // One row (a single partial chunk), empty rows (absorbing states), a row
  // count exactly at the chunk height, and one past it.
  {
    linalg::CsrBuilder builder(1, 3);
    builder.add(0, 0, 0.25);
    builder.add(0, 2, 0.75);
    expect_blocked_matches(builder.build(), 7);
  }
  {
    linalg::CsrBuilder builder(5, 5);
    builder.add(0, 4, 1.0);
    builder.add(3, 1, 0.5);  // rows 1, 2, 4 stay empty
    expect_blocked_matches(builder.build(), 8);
  }
  const std::size_t chunk = linalg::BlockedCsrMatrix::kChunkRows;
  for (const std::size_t rows : {chunk, chunk + 1, 3 * chunk - 1}) {
    linalg::CsrBuilder builder(rows, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      builder.add(r, r, 1.0 + static_cast<double>(r));
      builder.add(r, (r + 1) % rows, 0.5);
    }
    expect_blocked_matches(builder.build(), rows);
  }
}

TEST(BlockedSpmv, EmptyAndErrorCases) {
  const linalg::CsrMatrix empty(0, 0, {0}, {});
  const linalg::BlockedCsrMatrix blocked(empty);
  std::vector<double> x;
  std::vector<double> y;
  blocked.multiply_into(x, y, 4);  // no rows: a no-op, not a crash
  EXPECT_TRUE(y.empty());

  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  const linalg::BlockedCsrMatrix small(builder.build());
  std::vector<double> bad(3, 0.0);
  std::vector<double> out(2, 0.0);
  EXPECT_THROW(small.multiply_into(bad, out, 1), std::invalid_argument);
  std::vector<double> in(2, 0.0);
  EXPECT_THROW(small.multiply_into(in, in, 1), std::invalid_argument);
}

/// Sparse seeded random MRMs of 5 to 2047 states: the paper-scale sizes,
/// which the kernel-level bench_large rows do not cover.
std::vector<core::Mrm> series_models() {
  std::vector<core::Mrm> models;
  std::uint32_t seed = 11;
  for (const std::size_t n : {5, 9, 33, 90, 257, 1031, 2047}) {
    models::RandomMrmConfig config;
    config.num_states = n;
    config.edge_probability = std::min(0.5, 3.0 / static_cast<double>(n));
    models.push_back(models::make_random_mrm(seed++, config));
  }
  return models;
}

/// Finite test vector with exact zeros and negative entries mixed in, so the
/// padding slots' signed-zero products are exercised.
std::vector<double> signed_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x = random_vector(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) x[i] = 0.0;
    if (i % 3 == 1) x[i] = -x[i];
  }
  return x;
}

/// A distribution with zero entries, normalized in one pass.
std::vector<double> random_distribution(std::size_t n, std::uint64_t seed) {
  std::vector<double> p = random_vector(n, seed);
  double mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 1) p[i] = 0.0;
    mass += p[i];
  }
  for (double& v : p) v /= mass;
  return p;
}

/// The window-weighted series sum_i pmf(i) step^i(term), accumulated with the
/// same axpy as numeric/transient.cpp and advanced by `step`.
std::vector<double> reference_series(
    const numeric::PoissonWindow& window, std::vector<double> term,
    const std::function<std::vector<double>(const std::vector<double>&)>& step) {
  std::vector<double> values(term.size(), 0.0);
  for (std::size_t i = 0; i <= window.right; ++i) {
    if (i >= window.left) {
      core::simd::axpy(values.data(), term.data(), values.size(),
                       window.masses[i - window.left]);
    }
    if (i == window.right) break;
    term = step(term);
  }
  return values;
}

/// y = P * x through the CSR gather.
std::vector<double> csr_gather(const linalg::CsrMatrix& P, const std::vector<double>& x) {
  std::vector<double> y(P.rows(), 0.0);
  multiply_into(P, x, y, 1);
  return y;
}

constexpr double kHorizon = 1.3;

TEST(BlockedSpmvSeries, BackwardEqualsCsrGatherSeriesBelow2048States) {
  std::uint64_t seed = 1;
  for (const core::Mrm& model : series_models()) {
    double lambda = 0.0;
    const linalg::CsrMatrix P = numeric::uniformized_transition_matrix(model.rates(), lambda);
    ASSERT_GT(model.rates().max_exit_rate(), 0.0);
    const numeric::TransientOptions defaults;
    const auto window = numeric::poisson_window(lambda * kHorizon, defaults.epsilon);
    const std::vector<double> u0 = signed_vector(model.num_states(), seed++);
    const auto reference = reference_series(
        window, u0, [&](const std::vector<double>& x) { return csr_gather(P, x); });
    for (const unsigned threads : {1u, 2u, 8u}) {
      numeric::TransientOptions options;
      options.threads = threads;
      const auto result = numeric::transient_backward(model.rates(), u0, kHorizon, options);
      EXPECT_TRUE(bitwise_equal(result.values, reference))
          << model.num_states() << " states at " << threads << " threads";
    }
  }
}

TEST(BlockedSpmvSeries, OccupationEqualsCsrGatherSeriesBelow2048States) {
  std::uint64_t seed = 100;
  for (const core::Mrm& model : series_models()) {
    double lambda = 0.0;
    const linalg::CsrMatrix P = numeric::uniformized_transition_matrix(model.rates(), lambda);
    ASSERT_GT(model.rates().max_exit_rate(), 0.0);
    const numeric::TransientOptions defaults;
    const double mean = lambda * kHorizon;
    const std::size_t cap =
        numeric::poisson_truncation_point(mean, defaults.epsilon / (mean + 1.0)) + 1;
    const numeric::SharedPoissonTail tail(mean, cap + 1);
    const std::vector<double> g = signed_vector(model.num_states(), seed++);
    std::vector<double> reference(g.size(), 0.0);
    std::vector<double> term = g;
    for (std::size_t k = 0; k <= cap; ++k) {
      const double weight = tail.tail(k + 1) / lambda;
      if (weight <= 0.0) break;
      core::simd::axpy(reference.data(), term.data(), term.size(), weight);
      term = csr_gather(P, term);
    }
    for (const unsigned threads : {1u, 2u, 8u}) {
      numeric::TransientOptions options;
      options.threads = threads;
      const auto result = numeric::occupation_backward(model.rates(), g, kHorizon, options);
      EXPECT_TRUE(bitwise_equal(result, reference))
          << model.num_states() << " states at " << threads << " threads";
    }
  }
}

TEST(BlockedSpmvSeries, ForwardEqualsCsrScatterSeriesBelow2048States) {
  std::uint64_t seed = 200;
  for (const core::Mrm& model : series_models()) {
    double lambda = 0.0;
    const linalg::CsrMatrix P = numeric::uniformized_transition_matrix(model.rates(), lambda);
    ASSERT_GT(model.rates().max_exit_rate(), 0.0);
    const numeric::TransientOptions defaults;
    const auto window = numeric::poisson_window(lambda * kHorizon, defaults.epsilon);
    const std::vector<double> initial = random_distribution(model.num_states(), seed++);
    const auto reference = reference_series(
        window, initial, [&](const std::vector<double>& x) { return left_multiply(P, x); });
    for (const unsigned threads : {1u, 2u, 8u}) {
      numeric::TransientOptions options;
      options.threads = threads;
      const auto result =
          numeric::transient_distribution(model.rates(), initial, kHorizon, options);
      EXPECT_TRUE(bitwise_equal(result, reference))
          << model.num_states() << " states at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace csrlmrm
