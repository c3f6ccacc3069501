#include "oracle/transient_forward.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "linalg/blocked_csr.hpp"
#include "numeric/poisson.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

void require_distribution(const core::RateMatrix& rates, const std::vector<double>& initial) {
  if (initial.size() != rates.num_states()) {
    throw std::invalid_argument("transient: initial distribution size mismatch");
  }
  double mass = 0.0;
  for (double p : initial) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      throw std::invalid_argument("transient: probabilities must be finite and >= 0");
    }
    mass += p;
  }
  if (std::abs(mass - 1.0) > 1e-6) {
    throw std::invalid_argument("transient: initial distribution does not sum to 1");
  }
}

}  // namespace

TransientResult transient_distribution_checked(const core::RateMatrix& rates,
                                               const std::vector<double>& initial, double t,
                                               const TransientOptions& options) {
  obs::ScopedTimer timer("transient.distribution");
  obs::counter_add("transient.calls");
  require_distribution(rates, initial);
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("transient: t must be finite and >= 0");
  }
  TransientResult out;
  if (core::exactly_zero(t) || core::exactly_zero(rates.max_exit_rate())) {
    out.values = initial;  // nothing moves (t = 0 or every state absorbing)
    return out;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  // The backward series' window: only the [left, right] Poisson terms are
  // summed, each with its unnormalized mass, so the result is a
  // sub-distribution missing at most epsilon of mass.
  const auto window = poisson_window(lambda * t, options.epsilon);
  const linalg::BlockedCsrMatrix gather(P.transposed());
  const unsigned threads =
      parallel::choose_thread_count(options.threads, gather.non_zeros() * (window.right + 1));

  std::vector<double> term = initial;  // p(0) * P^i
  std::vector<double> scratch(term.size(), 0.0);
  out.values.assign(term.size(), 0.0);
  for (std::size_t i = 0; i <= window.right; ++i) {
    ++out.series_terms;
    if (i >= window.left) {
      core::simd::axpy(out.values.data(), term.data(), out.values.size(),
                       window.masses[i - window.left]);
    }
    if (i == window.right) break;
    gather.multiply_into(term, scratch, threads);
    term.swap(scratch);
    if (options.detect_steady_state && i + 1 < window.right) {
      const std::size_t remaining = window.right - (i + 1);
      double delta = 0.0;
      for (std::size_t s = 0; s < term.size(); ++s) delta += std::abs(term[s] - scratch[s]);
      if (delta * static_cast<double>(remaining) <= options.steady_epsilon) {
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

std::vector<double> transient_distribution(const core::RateMatrix& rates,
                                           const std::vector<double>& initial, double t,
                                           const TransientOptions& options) {
  return transient_distribution_checked(rates, initial, t, options).values;
}

std::vector<double> transient_distribution_from(const core::RateMatrix& rates,
                                                core::StateIndex start, double t,
                                                const TransientOptions& options) {
  if (start >= rates.num_states()) {
    throw std::invalid_argument("transient_distribution_from: start state out of range");
  }
  std::vector<double> initial(rates.num_states(), 0.0);
  initial[start] = 1.0;
  return transient_distribution(rates, initial, t, options);
}

}  // namespace csrlmrm::numeric
