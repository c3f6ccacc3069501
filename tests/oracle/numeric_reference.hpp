// One-shot numeric entry points the tests and the DFPG oracle use in place
// of the engines' batched ones: Omega through a fresh evaluator, the Poisson
// CDF as a plain sum of masses, and the conditional probability of one
// (k, j) impulse signature through its threshold r' (eq. 4.9).
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/conditional.hpp"
#include "numeric/omega.hpp"

namespace csrlmrm::numeric {

/// Omega(r, k) through a fresh OmegaEvaluator's forward flow; records its
/// work to the stats registry.
double omega(double r, const std::vector<double>& coefficients, const SpacingCounts& counts);

/// Pr{N <= n} for N ~ Poisson(mean), summed mass by mass and capped at 1.
/// mean must be >= 0 and finite (std::invalid_argument otherwise).
double poisson_cdf(std::size_t n, double mean);

/// The threshold r' = r/t - r_{K+1} - (1/t) sum_i i_i j_i of eq. (4.9); j
/// must have one count per impulse class, t must be positive, r finite and
/// >= 0 (std::invalid_argument otherwise).
double threshold(const RewardStructureContext& context, const SpacingCounts& j, double t,
                 double r);

/// Pr{ Y(t) <= r | n, k, j }. k must have one count per state-reward class
/// (sum = n+1 >= 1), j one count per impulse class (sum = n). t must be
/// positive, r finite and >= 0.
double conditional_probability(RewardStructureContext& context, const SpacingCounts& k,
                               const SpacingCounts& j, double t, double r);

}  // namespace csrlmrm::numeric
