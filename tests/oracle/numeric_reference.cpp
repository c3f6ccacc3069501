#include "oracle/numeric_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "numeric/poisson.hpp"

namespace csrlmrm::numeric {

double omega(double r, const std::vector<double>& coefficients, const SpacingCounts& counts) {
  const OmegaEvaluator evaluator(coefficients, r);
  std::vector<double> column(evaluator.flow_length(counts));
  OmegaWork work;
  const double value = evaluator.flow_start(counts, column.data(), work);
  work.record();
  return value;
}

double poisson_cdf(std::size_t n, double mean) {
  // poisson_pmf rejects an invalid mean on the first term.
  double acc = 0.0;
  for (std::size_t i = 0; i <= n; ++i) acc += poisson_pmf(i, mean);
  return std::min(acc, 1.0);
}

double threshold(const RewardStructureContext& context, const SpacingCounts& j, double t,
                 double r) {
  if (j.size() != context.num_impulse_reward_classes()) {
    throw std::invalid_argument("RewardStructureContext: impulse count vector size mismatch");
  }
  if (!(t > 0.0)) throw std::invalid_argument("RewardStructureContext: t must be positive");
  if (!std::isfinite(r) || r < 0.0) {
    throw std::invalid_argument("RewardStructureContext: reward bound must be finite and >= 0");
  }
  double impulse_total = 0.0;
  for (std::size_t i = 0; i < j.size(); ++i) {
    impulse_total += context.impulse_rewards()[i] * static_cast<double>(j[i]);
  }
  return context.threshold_for_total(impulse_total, t, r);
}

double conditional_probability(RewardStructureContext& context, const SpacingCounts& k,
                               const SpacingCounts& j, double t, double r) {
  if (k.size() != context.num_state_reward_classes()) {
    throw std::invalid_argument("RewardStructureContext: state count vector size mismatch");
  }
  const std::uint64_t residences =
      std::accumulate(k.begin(), k.end(), std::uint64_t{0},
                      [](std::uint64_t acc, std::uint32_t v) { return acc + v; });
  if (residences == 0) {
    throw std::invalid_argument("RewardStructureContext: a path visits at least one state");
  }
  return context.conditional_probability_for_threshold(k, threshold(context, j, t, r));
}

}  // namespace csrlmrm::numeric
