#include "numeric/conditional.hpp"

#include <cmath>
#include <stdexcept>

#include "core/approx.hpp"

namespace csrlmrm::numeric {

// Snapping the mantissa to 40 bits merges thresholds that differ only in the
// last few ulps — the typical outcome of computing r/t - r_{K+1} - (1/t) *
// sum i_i j_i with summands in a different association. The relative
// perturbation is at most 2^-41 (~4.5e-13), far below the Omega recursion's
// own conditioning, and every query against a given evaluator uses the same
// canonical value, so results stay deterministic.
double canonical_threshold(double r_prime) {
  if (!std::isfinite(r_prime) || core::exactly_zero(r_prime)) return r_prime;
  int exponent = 0;
  const double mantissa = std::frexp(r_prime, &exponent);
  constexpr double kScale = 1099511627776.0;  // 2^40
  return std::ldexp(std::nearbyint(mantissa * kScale) / kScale, exponent);
}

namespace {

void require_strictly_decreasing(const std::vector<double>& v, const char* what) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]) || v[i] < 0.0) {
      throw std::invalid_argument(std::string(what) + ": rewards must be finite and >= 0");
    }
    if (i > 0 && !(v[i - 1] > v[i])) {
      throw std::invalid_argument(std::string(what) + ": rewards must be strictly decreasing");
    }
  }
}
}  // namespace

RewardStructureContext::RewardStructureContext(std::vector<double> state_rewards_desc,
                                               std::vector<double> impulse_rewards_desc)
    : state_rewards_(std::move(state_rewards_desc)),
      impulse_rewards_(std::move(impulse_rewards_desc)) {
  if (state_rewards_.empty()) {
    throw std::invalid_argument("RewardStructureContext: need at least one state-reward class");
  }
  require_strictly_decreasing(state_rewards_, "RewardStructureContext(state rewards)");
  require_strictly_decreasing(impulse_rewards_, "RewardStructureContext(impulse rewards)");

  const double smallest = state_rewards_.back();
  coefficients_.reserve(state_rewards_.size());
  for (double ri : state_rewards_) coefficients_.push_back(ri - smallest);
}

double RewardStructureContext::threshold_for_total(double impulse_total, double t,
                                                   double r) const {
  if (!(t > 0.0)) throw std::invalid_argument("RewardStructureContext: t must be positive");
  if (!std::isfinite(r) || r < 0.0) {
    throw std::invalid_argument("RewardStructureContext: reward bound must be finite and >= 0");
  }
  return r / t - state_rewards_.back() - impulse_total / t;
}

double RewardStructureContext::conditional_probability_for_threshold(const SpacingCounts& k,
                                                                     double r_prime) {
  if (k.size() != state_rewards_.size()) {
    throw std::invalid_argument("RewardStructureContext: state count vector size mismatch");
  }
  const OmegaEvaluator& evaluator = evaluator_for_threshold(r_prime);
  const std::size_t length = evaluator.flow_length(k);
  if (column_.size() < length) column_.resize(length);
  return evaluator.flow_start(k, column_.data(), omega_work_);
}

const OmegaEvaluator& RewardStructureContext::evaluator_for_threshold(double r_prime) {
  const double canonical = canonical_threshold(r_prime);
  return evaluators_.try_emplace(canonical, coefficients_, canonical).first->second;
}

}  // namespace csrlmrm::numeric
