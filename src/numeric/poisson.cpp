#include "numeric/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::numeric {

namespace {
void require_valid_mean(double mean) {
  if (!(mean >= 0.0) || !std::isfinite(mean)) {
    throw std::invalid_argument("poisson: mean must be finite and >= 0");
  }
}

// std::lgamma writes the global `signgam` (a data race when the thread pool
// evaluates Poisson masses concurrently); the argument here is always >= 1,
// so the sign is irrelevant and the reentrant variant is safe to use.
double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  // Non-glibc/Apple fallback only: no lgamma_r on this platform, and the
  // serial call sites tolerate the signgam write.
  return std::lgamma(x);  // lint:allow(unsafe-libm)
#endif
}

void require_valid_epsilon(double epsilon, const char* caller) {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument(std::string(caller) + ": epsilon must be in (0,1)");
  }
}

// The masses Pr{N = first}..Pr{N = first+count-1}, written to `mass`, via a
// two-pass log-domain fill: the affine part dn*log(mean) - mean is
// vectorized (core::simd::fill_affine matches poisson_pmf's
// `dn * std::log(mean) - mean` bit for bit, since x + (-m) == x - m in IEEE
// arithmetic), then a scalar lgamma/exp pass. Each entry equals
// poisson_pmf(first + i, mean) exactly.
void fill_poisson_masses(double* mass, std::size_t first, std::size_t count, double mean) {
  if (core::exactly_zero(mean)) {  // the point mass at 0; the log form would give 0*log(0)
    for (std::size_t i = 0; i < count; ++i) mass[i] = first + i == 0 ? 1.0 : 0.0;
    return;
  }
  core::simd::fill_affine(mass, count, first, std::log(mean), -mean);
  for (std::size_t i = 0; i < count; ++i) {
    mass[i] = std::exp(mass[i] - log_gamma(static_cast<double>(first + i) + 1.0));
  }
}
}  // namespace

double poisson_pmf(std::size_t n, double mean) {
  require_valid_mean(mean);
  if (core::exactly_zero(mean)) return n == 0 ? 1.0 : 0.0;
  const double dn = static_cast<double>(n);
  return std::exp(dn * std::log(mean) - mean - log_gamma(dn + 1.0));
}

// A cap beyond kMaxPoissonWindowEnd is rejected before the conversion to
// std::size_t, which would be undefined past 2^64.
std::size_t poisson_hard_cap(double mean) {
  require_valid_mean(mean);
  const double cap = mean + 40.0 * std::sqrt(mean + 1.0);
  if (!(cap + 64.0 <= kMaxPoissonWindowEnd)) {
    throw std::invalid_argument(
        "poisson: mean too large, its truncation window ends beyond 2^53");
  }
  return static_cast<std::size_t>(cap) + 64;
}

std::size_t poisson_truncation_point(double mean, double epsilon) {
  require_valid_mean(mean);
  require_valid_epsilon(epsilon, "poisson_truncation_point");
  double cumulative = 0.0;
  std::size_t n = 0;
  // Accumulate until the captured mass reaches 1 - epsilon. The loop is
  // bounded: past the mode the masses decay faster than geometrically, so we
  // cap iterations generously relative to the mean.
  const std::size_t hard_cap = poisson_hard_cap(mean);
  for (;; ++n) {
    cumulative += poisson_pmf(n, mean);
    if (cumulative >= 1.0 - epsilon || n >= hard_cap) return n;
  }
}

PoissonWindow poisson_window(double mean, double epsilon) {
  obs::counter_add("poisson.window.calls");
  require_valid_mean(mean);
  require_valid_epsilon(epsilon, "poisson_window");

  // For small means a direct scan with the stable pmf is cheapest; for large
  // means use Bernstein-type tail bounds
  //   P(X >= mean + x) <= exp(-x^2 / (2(mean + x/3))),
  //   P(X <= mean - x) <= exp(-x^2 / (2 mean)),
  // each budgeted epsilon/2 (conservative, so coverage is guaranteed). The
  // scan of poisson_truncation_point is no substitute above 32: its rounded
  // running sum leaves 9.6e-12 beyond its point at mean 1e4, epsilon 1e-12,
  // and never reaches 1 - epsilon at larger means.
  PoissonWindow window;
  if (mean <= 32.0) {
    const double tail_budget = epsilon / 2.0;
    double cumulative = 0.0;
    std::size_t k = 0;
    // Left edge: last k whose preceding mass is still within budget.
    while (cumulative + poisson_pmf(k, mean) < tail_budget) {
      cumulative += poisson_pmf(k, mean);
      ++k;
    }
    window.left = k;
    window.right = std::max(window.left, poisson_truncation_point(mean, tail_budget));
  } else {
    const double log_budget = std::log(2.0 / epsilon);
    const double x_left = std::sqrt(2.0 * mean * log_budget);
    // Solve x^2 / (2(mean + x/3)) = log_budget for the right offset.
    const double b = log_budget / 3.0;
    const double x_right = b + std::sqrt(b * b + 2.0 * mean * log_budget);
    const double right_end = std::ceil(mean + x_right + 1.0);
    if (!(right_end <= kMaxPoissonWindowEnd)) {
      throw std::invalid_argument(
          "poisson_window: mean too large, its truncation window ends beyond 2^53");
    }
    window.left = static_cast<std::size_t>(std::max(0.0, std::floor(mean - x_left - 1.0)));
    window.right = static_cast<std::size_t>(right_end);
  }

  window.masses.resize(window.right - window.left + 1);
  fill_poisson_masses(window.masses.data(), window.left, window.masses.size(), mean);
  // Each mass is exp(n ln m - m - lgamma(n+1)): ln, the product, each
  // subtraction and exp round by an ulp, lgamma by a few, so ten units of
  // roundoff times the largest addends over the window bound every mass's
  // relative error, hence the error of their sum (the true masses sum to at
  // most 1). A zero mean's point mass is exact.
  const double right = static_cast<double>(window.right);
  window.rounding = core::exactly_zero(mean)
                        ? 0.0
                        : 5.0 * std::numeric_limits<double>::epsilon() *
                              (right * std::abs(std::log(mean)) + mean +
                               log_gamma(right + 1.0) + 1.0);
  // Max-merge keeps right >= left across threads: each thread's own pair
  // satisfies it, and max(right_i) >= max(left_i) follows.
  obs::gauge_max("poisson.window.left", static_cast<double>(window.left));
  obs::gauge_max("poisson.window.right", static_cast<double>(window.right));
  return window;
}

SharedPoissonTail::SharedPoissonTail(double mean, std::size_t n_max) : mean_(mean) {
  require_valid_mean(mean);
  const std::size_t count = n_max + 1;
  // Vectorized mass fill (each mass equals poisson_pmf bit for bit), then
  // the sequential clamped prefix sum.
  mass_.resize(count);
  fill_poisson_masses(mass_.data(), 0, count, mean_);
  cdf_.resize(count);
  cdf_[0] = mass_[0];
  for (std::size_t i = 1; i < count; ++i) cdf_[i] = std::min(cdf_[i - 1] + mass_[i], 1.0);
}

double SharedPoissonTail::pmf(std::size_t n) const {
  return n < mass_.size() ? mass_[n] : poisson_pmf(n, mean_);
}

double SharedPoissonTail::cdf(std::size_t n) const {
  if (n < cdf_.size()) return cdf_[n];
  // Beyond the precomputed range (possible only when the caller's size was
  // too small): sum the remaining masses on the fly. No mutation, so
  // concurrent readers stay race-free.
  double acc = cdf_.back();
  for (std::size_t i = cdf_.size(); i <= n; ++i) acc += poisson_pmf(i, mean_);
  return std::min(acc, 1.0);
}

double SharedPoissonTail::tail(std::size_t n) const {
  if (n == 0) return 1.0;
  return std::max(0.0, 1.0 - cdf(n - 1));
}

}  // namespace csrlmrm::numeric
