// Fox-Glynn Poisson weights (Fox & Glynn, CACM 1988) — the standard way
// production model checkers compute the Poisson terms of a uniformization
// sum: a left/right truncation window [L, R] capturing mass >= 1 - epsilon
// and unnormalized weights computed by the *backward/forward* recurrence
// from the mode, scaled so that under/overflow cannot occur, plus their
// exact total for normalization.
//
// Compared to evaluating each pmf through lgamma (numeric/poisson.hpp) this
// computes the whole window in O(R - L) multiplications; the two agree to
// ~1e-13 relative, which the tests pin down.
#pragma once

#include <cstddef>
#include <vector>

namespace csrlmrm::numeric {

/// The Fox-Glynn window and weights for one Poisson mean.
struct FoxGlynnWeights {
  /// Left and right truncation points: sum_{k in [left, right]} pmf(k)
  /// >= 1 - epsilon.
  std::size_t left = 0;
  std::size_t right = 0;
  /// Unnormalized weights, weights[i] ~ pmf(left + i) * scale.
  std::vector<double> weights;
  /// The scale: sum of weights; pmf(left+i) ~= weights[i] / total_weight.
  double total_weight = 0.0;

  /// The normalized Poisson probability of left + i.
  double probability(std::size_t i) const { return weights.at(i) / total_weight; }
};

/// Computes the window and weights for Poisson(mean) with truncation error
/// epsilon in (0,1). mean must be finite and >= 0; a zero mean yields the
/// point mass at 0. Throws std::invalid_argument otherwise, and for a mean
/// whose right window end exceeds kMaxPoissonWindowEnd (2^53,
/// numeric/poisson.hpp).
FoxGlynnWeights fox_glynn(double mean, double epsilon);

}  // namespace csrlmrm::numeric
