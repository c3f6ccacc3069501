#include "numeric/fox_glynn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/poisson.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::numeric {

FoxGlynnWeights fox_glynn(double mean, double epsilon) {
  obs::counter_add("fox_glynn.calls");
  if (!(mean >= 0.0) || !std::isfinite(mean)) {
    throw std::invalid_argument("fox_glynn: mean must be finite and >= 0");
  }
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("fox_glynn: epsilon must be in (0,1)");
  }

  FoxGlynnWeights result;
  if (core::exactly_zero(mean)) {
    result.left = 0;
    result.right = 0;
    result.weights = {1.0};
    result.total_weight = 1.0;
    obs::gauge_max("fox_glynn.left", 0.0);
    obs::gauge_max("fox_glynn.right", 0.0);
    return result;
  }

  // Window selection. For small means a direct scan with the stable pmf is
  // cheapest; for large means use Bernstein-type tail bounds
  //   P(X >= mean + x) <= exp(-x^2 / (2(mean + x/3))),
  //   P(X <= mean - x) <= exp(-x^2 / (2 mean)),
  // each budgeted epsilon/2 (conservative, so coverage is guaranteed).
  std::size_t left = 0;
  std::size_t right = 0;
  if (mean <= 32.0) {
    const double tail_budget = epsilon / 2.0;
    double cumulative = 0.0;
    std::size_t k = 0;
    // Left edge: last k whose preceding mass is still within budget.
    while (cumulative + poisson_pmf(k, mean) < tail_budget) {
      cumulative += poisson_pmf(k, mean);
      ++k;
    }
    left = k;
    right = std::max(left, poisson_truncation_point(mean, tail_budget));
  } else {
    const double log_budget = std::log(2.0 / epsilon);
    const double x_left = std::sqrt(2.0 * mean * log_budget);
    // Solve x^2 / (2(mean + x/3)) = log_budget for the right offset.
    const double b = log_budget / 3.0;
    const double x_right = b + std::sqrt(b * b + 2.0 * mean * log_budget);
    const double right_end = std::ceil(mean + x_right + 1.0);
    if (!(right_end <= kMaxPoissonWindowEnd)) {
      throw std::invalid_argument(
          "fox_glynn: mean too large, its truncation window ends beyond 2^53");
    }
    left = static_cast<std::size_t>(std::max(0.0, std::floor(mean - x_left - 1.0)));
    right = static_cast<std::size_t>(right_end);
  }

  // Weights by the mode-anchored recurrence w(k-1) = w(k) k / mean,
  // w(k+1) = w(k) mean / (k+1), scaled to w(mode) = 1 so all weights lie in
  // (0, 1] and no overflow can occur.
  const std::size_t mode =
      std::clamp(static_cast<std::size_t>(mean), left, right);
  std::vector<double> weights(right - left + 1, 0.0);
  weights[mode - left] = 1.0;
  // At extreme means (uniformization rates q*t in the 1e4..1e6 range) the
  // Bernstein window is generous enough that the far tails underflow into
  // denormals. Stop each recurrence at the last normal weight instead of
  // carrying it through denormal territory (slow, and flushed to zero under
  // FTZ): the untouched weights stay exactly 0.0, which only sharpens the
  // truncation, and the conserved window mass stays >= 1 - epsilon (pinned
  // by the extreme-mean regression tests).
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  for (std::size_t k = mode; k > left; --k) {
    const double next = weights[k - left] * static_cast<double>(k) / mean;
    if (next < kMinNormal) break;
    weights[k - 1 - left] = next;
  }
  for (std::size_t k = mode; k < right; ++k) {
    const double next = weights[k - left] * mean / static_cast<double>(k + 1);
    if (next < kMinNormal) break;
    weights[k + 1 - left] = next;
  }

  // Sum small-to-large from both ends toward the mode for accuracy.
  double total = 0.0;
  const std::size_t mode_index = mode - left;
  for (std::size_t i = 0; i < mode_index; ++i) total += weights[i];
  for (std::size_t i = weights.size() - 1; i > mode_index; --i) total += weights[i];
  total += weights[mode_index];

  result.left = left;
  result.right = right;
  result.weights = std::move(weights);
  result.total_weight = total;
  // Max-merge keeps right >= left across threads: each thread's own pair
  // satisfies it, and max(right_i) >= max(left_i) follows.
  obs::gauge_max("fox_glynn.left", static_cast<double>(left));
  obs::gauge_max("fox_glynn.right", static_cast<double>(right));
  return result;
}

}  // namespace csrlmrm::numeric
