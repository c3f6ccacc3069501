#include "numeric/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "linalg/blocked_csr.hpp"
#include "numeric/poisson.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

void require_column(const core::RateMatrix& rates, const std::vector<double>& column,
                    const char* caller) {
  if (column.size() != rates.num_states()) {
    throw std::invalid_argument(std::string(caller) + ": vector size mismatch");
  }
  for (double v : column) {
    if (!std::isfinite(v)) throw std::invalid_argument(std::string(caller) + ": non-finite entry");
  }
}

void require_time(double t) {
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("transient: t must be finite and >= 0");
  }
}

/// The operator of a series: the uniformized matrix P repacked into the
/// blocked layout, and the thread count its products run at. Every output
/// entry accumulates in ascending source order at any thread count, so
/// results are bitwise-identical to a serial CSR gather
/// (tests/test_blocked_spmv.cpp pins this); the inputs are checked finite,
/// which the blocked kernel's padding requires.
struct SeriesOperator {
  SeriesOperator(const linalg::CsrMatrix& gather, std::size_t terms, unsigned requested_threads)
      : matrix(gather),
        threads(parallel::choose_thread_count(requested_threads, gather.non_zeros() * terms)) {}

  /// term <- A * term, with `scratch` receiving the previous iterate.
  void advance(std::vector<double>& term, std::vector<double>& scratch) const {
    matrix.multiply_into(term, scratch, threads);
    term.swap(scratch);
  }

  linalg::BlockedCsrMatrix matrix;
  unsigned threads;
};

/// Body of the backward series: accumulate the terms weighted by the
/// window's Poisson masses, optionally cutting the series once successive
/// iterates have stabilized in the max norm (the column-vector iteration is
/// non-expansive there).
TransientResult accumulate_series(const SeriesOperator& op, const PoissonWindow& window,
                                  std::vector<double> initial, const TransientOptions& options) {
  TransientResult out;
  std::vector<double> term = std::move(initial);  // P^i * u0
  std::vector<double> scratch(term.size(), 0.0);
  out.values.assign(term.size(), 0.0);
  for (std::size_t i = 0; i <= window.right; ++i) {
    ++out.series_terms;
    if (i >= window.left) {
      core::simd::axpy(out.values.data(), term.data(), out.values.size(),
                       window.masses[i - window.left]);
    }
    if (i == window.right) break;
    op.advance(term, scratch);
    // After the swap `scratch` holds the previous iterate, so the
    // steady-state test compares successive terms without extra storage.
    if (options.detect_steady_state && i + 1 < window.right) {
      const std::size_t remaining = window.right - (i + 1);
      double delta = 0.0;
      for (std::size_t s = 0; s < term.size(); ++s) {
        delta = std::max(delta, std::abs(term[s] - scratch[s]));
      }
      if (delta * static_cast<double>(remaining) <= options.steady_epsilon) {
        // The uniformized step is non-expansive in the max norm, so every
        // future iterate stays within remaining * delta of the current one;
        // folding the window's whole remaining Poisson mass onto the
        // current iterate therefore closes the series with a per-state error
        // of at most steady_error — accounted into the caller's interval.
        double tail_mass = 0.0;
        for (std::size_t k = std::max(window.left, i + 1); k <= window.right; ++k) {
          tail_mass += window.masses[k - window.left];
        }
        core::simd::axpy(out.values.data(), term.data(), out.values.size(), tail_mass);
        out.steady_error = delta * static_cast<double>(remaining);
        out.steady_state_detected = true;
        obs::counter_add("uniformization.steady_detected");
        obs::counter_add("uniformization.terms_saved", remaining);
        break;
      }
    }
  }
  obs::counter_add("transient.series_terms", out.series_terms);
  return out;
}

}  // namespace

linalg::CsrMatrix uniformized_transition_matrix(const core::RateMatrix& rates,
                                                double& lambda_out) {
  const std::size_t n = rates.num_states();
  const double max_exit = rates.max_exit_rate();
  lambda_out = max_exit > 0.0 ? max_exit : 1.0;

  // Each row is emitted in column order with the self loop in its place, so
  // the builder takes its presorted pass instead of copying and sorting
  // every entry. The self loop needs the row's off-diagonal mass first,
  // summed in column order.
  linalg::CsrBuilder builder(n, n);
  builder.reserve(rates.matrix().non_zeros() + n);
  for (core::StateIndex s = 0; s < n; ++s) {
    const auto row = rates.transitions(s);
    double off_diagonal = 0.0;
    for (const auto& e : row) {
      if (e.col != s) off_diagonal += e.value / lambda_out;
    }
    const double self_loop = 1.0 - off_diagonal;
    bool self_loop_pending = self_loop > 0.0;
    for (const auto& e : row) {
      if (self_loop_pending && e.col >= s) {
        builder.add(s, s, self_loop);
        self_loop_pending = false;
      }
      if (e.col != s) builder.add(s, e.col, e.value / lambda_out);
    }
    if (self_loop_pending) builder.add(s, s, self_loop);
  }
  return builder.build();
}

TransientResult transient_backward(const core::RateMatrix& rates, std::vector<double> u0,
                                   double t, const TransientOptions& options) {
  obs::ScopedTimer timer("transient.backward");
  obs::counter_add("transient.hit_calls");
  require_column(rates, u0, "transient_backward");
  require_time(t);
  TransientResult out;
  if (core::exactly_zero(t) || core::exactly_zero(rates.max_exit_rate())) {
    out.values = std::move(u0);  // the chain never leaves its start
    return out;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  const auto window = poisson_window(lambda * t, options.epsilon);
  double u0_max = 0.0;
  for (const double v : u0) u0_max = std::max(u0_max, std::abs(v));
  const SeriesOperator op(P, window.right + 1, options.threads);
  out = accumulate_series(op, window, std::move(u0), options);
  out.rounding_error = window.rounding * u0_max;
  return out;
}

std::vector<double> occupation_backward(const core::RateMatrix& rates,
                                        const std::vector<double>& g, double t,
                                        const TransientOptions& options) {
  obs::ScopedTimer timer("transient.occupation");
  obs::counter_add("transient.occupation_calls");
  require_column(rates, g, "occupation_backward");
  require_time(t);
  const std::size_t n = rates.num_states();
  std::vector<double> result(n, 0.0);
  if (core::exactly_zero(t)) return result;
  if (core::exactly_zero(rates.max_exit_rate())) {
    // Nothing moves: the chain earns its start state's value all along.
    for (std::size_t s = 0; s < n; ++s) result[s] = g[s] * t;
    return result;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  const double mean = lambda * t;

  // (1/Lambda) sum_{k>=0} Pr{N_t >= k+1} (P^k g)(s). The tail weights sum to
  // E[N_t] = Lambda t; truncate once the remaining tail mass contributes
  // less than epsilon * t.
  const std::size_t hard_cap =
      poisson_truncation_point(mean, options.epsilon / (mean + 1.0)) + 1;
  const SharedPoissonTail tail_table(mean, hard_cap + 1);
  const SeriesOperator op(P, hard_cap, options.threads);

  std::vector<double> term = g;
  std::vector<double> scratch(n, 0.0);
  std::size_t terms = 0;
  for (std::size_t k = 0; k <= hard_cap; ++k) {
    const double weight = tail_table.tail(k + 1) / lambda;
    if (weight <= 0.0) break;
    ++terms;
    core::simd::axpy(result.data(), term.data(), n, weight);
    op.advance(term, scratch);
  }
  obs::counter_add("transient.series_terms", terms);
  return result;
}

}  // namespace csrlmrm::numeric
