#include "numeric/signature_model.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "linalg/csr_matrix.hpp"
#include "numeric/transient.hpp"

namespace csrlmrm::numeric {

namespace {

/// Sorts descending and drops exact duplicates in place. The engines' class
/// indices are found by binary search over this vector, so strict descending
/// order is load-bearing.
void sort_distinct_descending(std::vector<double>& values) {
  std::sort(values.begin(), values.end(), std::greater<>());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

std::size_t class_index_descending(const std::vector<double>& descending, double value) {
  // descending is strictly decreasing and contains value.
  const auto it = std::lower_bound(descending.begin(), descending.end(), value,
                                   [](double a, double b) { return a > b; });
  return static_cast<std::size_t>(it - descending.begin());
}

}  // namespace

SignatureModel::SignatureModel(const core::Mrm& model, std::vector<bool> psi_mask,
                               std::vector<bool> dead_mask)
    : num_states(model.num_states()), psi(std::move(psi_mask)), dead(std::move(dead_mask)) {
  const std::size_t n = num_states;
  if (psi.size() != n || dead.size() != n) {
    throw std::invalid_argument("SignatureModel: mask size mismatch");
  }

  // Distinct state rewards r_1 > ... > r_{K+1} and their per-state classes.
  distinct_state_rewards.reserve(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    distinct_state_rewards.push_back(model.state_reward(s));
  }
  sort_distinct_descending(distinct_state_rewards);
  reward_class.resize(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    reward_class[s] = class_index_descending(distinct_state_rewards, model.state_reward(s));
  }

  // Distinct impulse rewards; 0 is always present because uniformization
  // introduces self-loops and iota(s,s) = 0 by Definition 3.1.
  distinct_impulse_rewards.push_back(0.0);
  for (core::StateIndex s = 0; s < n; ++s) {
    for (const auto& e : model.impulse_rewards().row(s)) {
      distinct_impulse_rewards.push_back(e.value);
    }
  }
  sort_distinct_descending(distinct_impulse_rewards);

  // Flatten the uniformized DTMC with per-transition impulse classes.
  const linalg::CsrMatrix P = uniformized_transition_matrix(model.rates(), lambda);
  adjacency.resize(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    const auto row = P.row(s);
    adjacency[s].reserve(row.size());
    for (const auto& e : row) {
      const double impulse = (e.col == s) ? 0.0 : model.impulse_reward(s, e.col);
      adjacency[s].push_back(
          {e.col, e.value, class_index_descending(distinct_impulse_rewards, impulse)});
    }
  }
}

}  // namespace csrlmrm::numeric
