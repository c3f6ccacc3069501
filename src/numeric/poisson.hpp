// Poisson probabilities for uniformization.
//
// The thesis computes Poisson weights with the simple recursion
// P_0 = e^{-Lambda t}, P_i = (Lambda t / i) P_{i-1} (section 4.6.2). That
// recursion underflows for Lambda*t beyond ~700, so all entry points here
// evaluate each mass in the log domain (n ln m - m - lgamma(n+1)), which is
// stable for any mean, and tests pin the two forms against each other where
// both are representable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace csrlmrm::numeric {

/// The largest Poisson window end the truncation code accepts: 2^53, past
/// which not every integer is a double. poisson_truncation_point,
/// PoissonTailCache::table and fox_glynn throw std::invalid_argument for a
/// mean whose window end lies beyond it (any mean above about 9.007e15, e.g.
/// a uniformization rate Lambda*t of 1e30), instead of converting an
/// out-of-range double to std::size_t.
inline constexpr double kMaxPoissonWindowEnd = 9007199254740992.0;

/// Pr{N = n} for N ~ Poisson(mean). mean must be >= 0 and finite (throws
/// std::invalid_argument otherwise); mean == 0 gives the point mass at 0.
double poisson_pmf(std::size_t n, double mean);

/// Pr{N <= n}.
double poisson_cdf(std::size_t n, double mean);

/// The masses Pr{N = 0} .. Pr{N = n_max} as a vector of length n_max + 1.
std::vector<double> poisson_pmf_sequence(std::size_t n_max, double mean);

/// Smallest N such that Pr{N > N} <= epsilon, i.e. the right truncation
/// point for a uniformization sum with error tolerance epsilon in (0,1).
/// Throws std::invalid_argument when the scan's cap for `mean` exceeds
/// kMaxPoissonWindowEnd.
std::size_t poisson_truncation_point(double mean, double epsilon);

/// Immutable Poisson CDF/tail table for one fixed mean, safe to share across
/// threads without synchronization. Entry n is the clamped sequential prefix
/// sum min(1, cdf(n-1) + poisson_pmf(n, mean)), bit for bit; queries beyond
/// the table fall back to direct summation without mutating any state. The
/// occupation series and the uniformization explorers take their tail
/// weights Pr{N >= n} from it.
class SharedPoissonTail {
 public:
  SharedPoissonTail(double mean, std::size_t n_max);

  double mean() const { return mean_; }
  std::size_t table_size() const { return cdf_.size(); }

  /// Pr{N <= n}.
  double cdf(std::size_t n) const;
  /// Pr{N >= n} = 1 - Pr{N <= n-1}; tail(0) = 1.
  double tail(std::size_t n) const;

 private:
  double mean_;
  std::vector<double> cdf_;  // cdf_[i] = Pr{N <= i}
};

/// Thread-safe per-mean cache of SharedPoissonTail tables. Every explorer
/// solve over the same (model, t) — repeated formulas, daemon requests,
/// nested operators — needs the identical mean Lambda*t, so the table is
/// built once and shared. The first query for a mean builds the table under
/// an internal mutex, every later one shares the immutable snapshot. A
/// request with a larger n_max than the cached table replaces it with an
/// extended build (already-handed-out snapshots stay valid).
///
/// Tables are always built out to the distribution's hard truncation cap
/// (the same bound poisson_truncation_point uses), so tail() queries from
/// the explorers stay inside the precomputed range instead of hitting the
/// per-call summation fallback — profiling showed that fallback dominating
/// deep DFS runs. The cache itself is capacity-bounded LRU (kCapacity
/// distinct means) so a long-lived checker sweeping many time bounds cannot
/// grow it without limit; occupancy is reported via the
/// "poisson.tail_cache_occupancy" gauge and evictions via the
/// "poisson.tail_cache_evictions" counter.
class PoissonTailCache {
 public:
  /// Retained tables for distinct means; evicting the least-recently-used
  /// entry only drops the cache's reference, handed-out snapshots survive.
  static constexpr std::size_t kCapacity = 8;

  /// The process-wide cache both uniformization explorers draw from, so a
  /// long-lived service re-checking the same (model, t) keeps its Poisson
  /// tables warm across requests. Tables are pure functions of the mean
  /// (always built to the hard truncation cap), so sharing across solves is
  /// bitwise-identical to per-solve rebuilds.
  static PoissonTailCache& global();

  /// The table for `mean` covering at least [0, n_max].
  std::shared_ptr<const SharedPoissonTail> table(double mean, std::size_t n_max) const;

 private:
  struct Slot {
    std::shared_ptr<const SharedPoissonTail> table;
    std::uint64_t last_use = 0;
  };

  // Linear scan over exact means: one engine sees one or two distinct means
  // over its lifetime, so a map is not worth its allocations.
  mutable std::mutex mutex_;
  mutable std::uint64_t tick_ = 0;     // lint:guarded_by(mutex_)
  mutable std::vector<Slot> tables_;  // lint:guarded_by(mutex_)
};

}  // namespace csrlmrm::numeric
