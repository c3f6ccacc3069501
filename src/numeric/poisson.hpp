// Poisson probabilities for uniformization.
//
// The thesis computes Poisson weights with the simple recursion
// P_0 = e^{-Lambda t}, P_i = (Lambda t / i) P_{i-1} (section 4.6.2). That
// recursion underflows for Lambda*t beyond ~700, so every mass here is
// evaluated in the log domain (n ln m - m - lgamma(n+1)), which is stable
// for any mean, and tests pin the two forms against each other where both
// are representable. One routine fills every mass: poisson_pmf, the series
// window's masses and the tail table's masses agree bit for bit.
#pragma once

#include <cstddef>
#include <vector>

namespace csrlmrm::numeric {

/// The largest Poisson window end the truncation code accepts: 2^53, past
/// which not every integer is a double. poisson_hard_cap,
/// poisson_truncation_point and poisson_window throw std::invalid_argument
/// for a mean whose window end lies beyond it (any mean above about
/// 9.007e15, e.g. a uniformization rate Lambda*t of 1e30), instead of
/// converting an out-of-range double to std::size_t.
inline constexpr double kMaxPoissonWindowEnd = 9007199254740992.0;

/// Pr{N = n} for N ~ Poisson(mean). mean must be >= 0 and finite (throws
/// std::invalid_argument otherwise); mean == 0 gives the point mass at 0.
double poisson_pmf(std::size_t n, double mean);

/// mean + 40 sqrt(mean + 1) + 64, past which Poisson(mean) mass is negligible
/// for any tolerance the engines use; class-DP sizes its table to it.
std::size_t poisson_hard_cap(double mean);

/// Smallest N such that Pr{N > N} <= epsilon, i.e. the right truncation
/// point for a uniformization sum with error tolerance epsilon in (0,1).
/// Throws std::invalid_argument when the scan's cap for `mean` exceeds
/// kMaxPoissonWindowEnd.
std::size_t poisson_truncation_point(double mean, double epsilon);

/// The truncation window of a uniformization series and its term weights.
struct PoissonWindow {
  /// Left and right truncation points: the Poisson mass outside
  /// [left, right] is at most epsilon.
  std::size_t left = 0;
  std::size_t right = 0;
  /// masses[i] = poisson_pmf(left + i, mean), bit for bit, unnormalized: a
  /// series sum_i masses[i] x_i with x_i in [0, 1] loses at most epsilon.
  std::vector<double> masses;
  /// Bound on sum_i |masses[i] - Pr{N = left + i}|: 1.4e-12 at mean 80,
  /// 5e-11 at 2500, 7e-9 at 2.5e5.
  double rounding = 0.0;
};

/// The window of Poisson(mean) for truncation error epsilon in (0,1): a scan
/// for mean <= 32, Bernstein tail bounds above, each tail budgeted
/// epsilon/2. Throws std::invalid_argument for a negative or non-finite
/// mean, an epsilon outside (0,1), or a right end past kMaxPoissonWindowEnd.
PoissonWindow poisson_window(double mean, double epsilon);

/// Immutable Poisson mass and CDF/tail table for one mean, safe to share
/// across threads. Mass n is poisson_pmf(n, mean) and CDF entry n the
/// clamped prefix sum min(1, cdf(n-1) + mass n), bit for bit; queries past
/// the table compute directly. The occupation series and each class-DP
/// solve build one.
class SharedPoissonTail {
 public:
  SharedPoissonTail(double mean, std::size_t n_max);

  std::size_t table_size() const { return cdf_.size(); }

  /// Pr{N = n}.
  double pmf(std::size_t n) const;
  /// Pr{N <= n}.
  double cdf(std::size_t n) const;
  /// Pr{N >= n} = 1 - Pr{N <= n-1}; tail(0) = 1.
  double tail(std::size_t n) const;

 private:
  double mean_;
  std::vector<double> mass_;  // mass_[i] = Pr{N = i}
  std::vector<double> cdf_;   // cdf_[i] = Pr{N <= i}
};

}  // namespace csrlmrm::numeric
