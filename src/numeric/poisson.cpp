#include "numeric/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

// Index past which Poisson mass is negligible for any tolerance the engines
// use; poisson_truncation_point bounds its scan with the same expression, and
// PoissonTailCache sizes its tables to it so tail() queries never leave the
// precomputed range. A cap beyond kMaxPoissonWindowEnd is rejected before the
// conversion to std::size_t, which would be undefined past 2^64.
std::size_t poisson_hard_cap(double mean) {
  const double cap = mean + 40.0 * std::sqrt(mean + 1.0);
  if (!(cap + 64.0 <= kMaxPoissonWindowEnd)) {
    throw std::invalid_argument(
        "poisson: mean too large, its truncation window ends beyond 2^53");
  }
  return static_cast<std::size_t>(cap) + 64;
}

// The masses Pr{N = 0}..Pr{N = count-1} for a strictly positive mean, via a
// two-pass log-domain fill: the affine part dn*log(mean) - mean is
// vectorized (core::simd::fill_affine matches poisson_pmf's
// `dn * std::log(mean) - mean` bit for bit, since x + (-m) == x - m in IEEE
// arithmetic), then a scalar lgamma/exp pass. Each entry equals
// poisson_pmf(i, mean) exactly.
void fill_poisson_masses(std::vector<double>& mass, std::size_t count, double mean) {
  mass.resize(count);
  core::simd::fill_affine(mass.data(), count, 0, std::log(mean), -mean);
  for (std::size_t i = 0; i < count; ++i) {
    mass[i] = std::exp(mass[i] - log_gamma(static_cast<double>(i) + 1.0));
  }
}
}  // namespace

double poisson_pmf(std::size_t n, double mean) {
  require_valid_mean(mean);
  if (core::exactly_zero(mean)) return n == 0 ? 1.0 : 0.0;
  const double dn = static_cast<double>(n);
  return std::exp(dn * std::log(mean) - mean - log_gamma(dn + 1.0));
}

std::vector<double> poisson_pmf_sequence(std::size_t n_max, double mean) {
  require_valid_mean(mean);
  std::vector<double> pmf;
  if (core::exactly_zero(mean)) {
    pmf.assign(n_max + 1, 0.0);
    pmf[0] = 1.0;
    return pmf;
  }
  fill_poisson_masses(pmf, n_max + 1, mean);
  return pmf;
}

std::size_t poisson_truncation_point(double mean, double epsilon) {
  require_valid_mean(mean);
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("poisson_truncation_point: epsilon must be in (0,1)");
  }
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

SharedPoissonTail::SharedPoissonTail(double mean, std::size_t n_max) : mean_(mean) {
  require_valid_mean(mean);
  const std::size_t count = n_max + 1;
  if (core::exactly_zero(mean_)) {  // point mass at 0; log-domain fill would form 0*log(0)
    cdf_.assign(count, 1.0);
    return;
  }
  // Vectorized mass fill (each mass equals poisson_pmf bit for bit), then
  // the sequential clamped prefix sum.
  std::vector<double> mass;
  fill_poisson_masses(mass, count, mean_);
  cdf_.resize(count);
  cdf_[0] = mass[0];
  for (std::size_t i = 1; i < count; ++i) cdf_[i] = std::min(cdf_[i - 1] + mass[i], 1.0);
}

double SharedPoissonTail::cdf(std::size_t n) const {
  if (n < cdf_.size()) return cdf_[n];
  // Beyond the precomputed range (possible only when the caller's sizing
  // hint was too small): sum the remaining masses on the fly. No mutation,
  // so concurrent readers stay race-free.
  double acc = cdf_.back();
  for (std::size_t i = cdf_.size(); i <= n; ++i) acc += poisson_pmf(i, mean_);
  return std::min(acc, 1.0);
}

double SharedPoissonTail::tail(std::size_t n) const {
  if (n == 0) return 1.0;
  return std::max(0.0, 1.0 - cdf(n - 1));
}

PoissonTailCache& PoissonTailCache::global() {
  static PoissonTailCache cache;
  return cache;
}

std::shared_ptr<const SharedPoissonTail> PoissonTailCache::table(double mean,
                                                                std::size_t n_max) const {
  require_valid_mean(mean);
  // Build out to the hard truncation cap regardless of the caller's hint:
  // the explorers query tail() at every depth they visit, and depths past
  // the caller's truncation point would otherwise fall into
  // SharedPoissonTail::cdf's per-call summation fallback on every query.
  const std::size_t sized = std::max(n_max, poisson_hard_cap(mean) + 2);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (auto& slot : tables_) {
    if (!core::exactly_equal(slot.table->mean(), mean)) continue;
    slot.last_use = tick_;
    if (slot.table->table_size() > sized) return slot.table;
    slot.table = std::make_shared<const SharedPoissonTail>(mean, sized);
    return slot.table;
  }
  if (tables_.size() >= kCapacity) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < tables_.size(); ++i) {
      if (tables_[i].last_use < tables_[victim].last_use) victim = i;
    }
    tables_.erase(tables_.begin() + static_cast<std::ptrdiff_t>(victim));
    obs::counter_add("poisson.tail_cache_evictions");
  }
  tables_.push_back(Slot{std::make_shared<const SharedPoissonTail>(mean, sized), tick_});
  obs::gauge_max("poisson.tail_cache_occupancy", tables_.size());
  return tables_.back().table;
}

}  // namespace csrlmrm::numeric
