// The rate matrix R : S x S -> R>=0 of a CTMC (Definition 2.1).
//
// Wraps a sparse CSR matrix and caches the total exit rates
// E(s) = sum_s' R(s,s'), from which the embedded (jump-chain) probabilities
// P(s,s') = R(s,s') / E(s) of chapters 3/4 follow.
//
// Following the thesis (2.5), self-loops R(s,s) > 0 are allowed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/labels.hpp"
#include "linalg/csr_matrix.hpp"
#include "core/approx.hpp"

namespace csrlmrm::core {

class RateMatrix;

/// Builder for RateMatrix; rates for the same transition accumulate.
class RateMatrixBuilder {
 public:
  explicit RateMatrixBuilder(std::size_t num_states);

  /// Adds `rate` to transition `from -> to`. Throws std::invalid_argument for
  /// negative or non-finite rates, std::out_of_range for bad states.
  void add(StateIndex from, StateIndex to, double rate);

  /// Pre-allocates room for `transitions` entries (see CsrBuilder::reserve).
  void reserve(std::size_t transitions) { builder_.reserve(transitions); }

  std::size_t num_states() const { return builder_.rows(); }

  RateMatrix build() const;

 private:
  linalg::CsrBuilder builder_;
};

/// Immutable rate matrix with cached exit rates.
class RateMatrix {
 public:
  /// Wraps an existing sparse matrix; must be square with non-negative
  /// entries (validated, throws std::invalid_argument otherwise).
  explicit RateMatrix(linalg::CsrMatrix rates);

  std::size_t num_states() const { return rates_.rows(); }

  /// R(s,s'); 0 when there is no transition.
  double rate(StateIndex from, StateIndex to) const { return rates_.at(from, to); }

  /// Total exit rate E(s).
  double exit_rate(StateIndex s) const { return exit_rates_.at(s); }

  /// Largest exit rate over all states (0 for an all-absorbing chain).
  double max_exit_rate() const { return max_exit_rate_; }

  /// True iff E(s) = 0, i.e. the state is absorbing (Definition 3.2).
  bool is_absorbing(StateIndex s) const { return exactly_zero(exit_rates_.at(s)); }

  /// Outgoing transitions of s as (target, rate) entries, ascending target.
  std::span<const linalg::Entry> transitions(StateIndex s) const { return rates_.row(s); }

  /// The underlying sparse matrix (for graph algorithms and solvers).
  const linalg::CsrMatrix& matrix() const { return rates_; }

 private:
  linalg::CsrMatrix rates_;
  std::vector<double> exit_rates_;
  double max_exit_rate_ = 0.0;
};

}  // namespace csrlmrm::core
