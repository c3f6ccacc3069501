// Conditional accumulated-reward probabilities (section 4.6.3):
//
//   Pr{ Y(t) <= r | n, k, j }
//     = Pr{ sum_{i=1}^{K} (r_i - r_{i+1}) U_{(k_1+..+k_i)}(1)
//             <= r/t - r_{K+1} - (1/t) sum_i i_i j_i }        (eq. 4.9)
//     = Omega(r', k)  with coefficients d_i = r_i - r_{K+1}   (eq. 4.10)
//
// where r_1 > ... > r_{K+1} are the distinct state rewards of the model,
// i_1 > ... > i_J its distinct impulse rewards, k counts Poisson-epoch
// residences per state-reward class along a uniformized path, and j counts
// transition occurrences per impulse class. The context below owns the
// distinct-reward bookkeeping and keeps one OmegaEvaluator per distinct
// threshold r' (paths with the same impulse signature share an evaluator, so
// its coefficient split is derived once; the evaluator itself is a stateless
// forward flow, see omega.hpp). A context is built per solve, so its
// evaluators live exactly as long as the solve that uses them.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "numeric/omega.hpp"

namespace csrlmrm::numeric {

/// Canonical representation of a threshold r' for evaluator caching and
/// class grouping: the mantissa is snapped to 40 bits (relative perturbation
/// <= 2^-41), so thresholds that agree mathematically but differ by
/// floating-point rounding — e.g. two impulse signatures whose totals are
/// equal — map to one representative. Idempotent; preserves 0 and infinities.
double canonical_threshold(double r_prime);

/// Precomputed reward bookkeeping for conditional-probability queries. A
/// context keeps its evaluators and owns the flow column its Omega
/// evaluations run in, so it serves one thread at a time.
class RewardStructureContext {
 public:
  /// `state_rewards_desc` must be strictly decreasing (the distinct rho
  /// values, largest first); `impulse_rewards_desc` likewise for the distinct
  /// iota values. Either may include 0. Throws std::invalid_argument when a
  /// vector is unsorted, has duplicates, or state_rewards_desc is empty.
  RewardStructureContext(std::vector<double> state_rewards_desc,
                         std::vector<double> impulse_rewards_desc);

  std::size_t num_state_reward_classes() const { return state_rewards_.size(); }
  std::size_t num_impulse_reward_classes() const { return impulse_rewards_.size(); }

  const std::vector<double>& state_rewards() const { return state_rewards_; }
  const std::vector<double>& impulse_rewards() const { return impulse_rewards_; }

  /// Pr{ Y(t) <= r | n, k, j } = Omega(r', k) for the threshold r' of
  /// eq. (4.9); k must have one count per state-reward class. The
  /// conditional probability depends on j only through r', so callers that
  /// group their signature classes by (k, r') — the signature-class DP
  /// engine does — evaluate each group once instead of once per distinct j.
  ///
  /// Evaluator caching uses a canonicalized threshold (mantissa snapped to 40
  /// bits, relative perturbation <= 2^-41): impulse signatures whose
  /// thresholds agree mathematically but differ by floating-point rounding
  /// share one evaluator instead of building one each.
  double conditional_probability_for_threshold(const SpacingCounts& k, double r_prime);

  /// The evaluator for threshold r' (canonicalized internally), as
  /// conditional_probability_for_threshold uses it. It stays valid for the
  /// context's lifetime; callers that run its flow themselves
  /// (OmegaEvaluator::flow_start / flow_extend) keep their own column.
  const OmegaEvaluator& evaluator_for_threshold(double r_prime);

  /// The Omega work of this context's evaluations so far, for the caller to
  /// record once per run (OmegaWork::record); callers may add their own.
  OmegaWork& omega_work() { return omega_work_; }

  /// The threshold r' = r/t - r_{K+1} - (1/t) sum_i i_i j_i of eq. (4.9),
  /// from the impulse total sum_i i_i j_i — the class DP engine's signatures
  /// carry that total (snapped to its canonical_threshold representative)
  /// instead of per-class counts. t must be positive, r finite and >= 0.
  double threshold_for_total(double impulse_total, double t, double r) const;

  /// The Omega coefficients d_i = r_i - r_{K+1} (descending, last entry 0).
  /// Exposed so callers can replicate the recursion's trivial base cases —
  /// Omega = 1 when no class with k_i > 0 has d_i > r', Omega = 0 when none
  /// has d_i <= r' — without paying for an evaluator lookup.
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Number of distinct Omega thresholds this context has touched.
  std::size_t evaluator_count() const { return evaluators_.size(); }

 private:
  std::vector<double> state_rewards_;    // r_1 > ... > r_{K+1}
  std::vector<double> impulse_rewards_;  // i_1 > ... > i_J (possibly empty)
  std::vector<double> coefficients_;     // d_i = r_i - r_{K+1}
  // One evaluator per canonical threshold. std::map nodes never move, so
  // the references evaluator_for_threshold hands out stay valid.
  std::map<double, OmegaEvaluator> evaluators_;
  // The flow column of every evaluation this context makes, so repeated
  // conditional probabilities allocate only when a longer column appears.
  // Like evaluators_, it makes a context single-threaded.
  std::vector<double> column_;
  OmegaWork omega_work_;
};

}  // namespace csrlmrm::numeric
