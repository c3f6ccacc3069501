#include "oracle/ctmc_measures.hpp"

#include <stdexcept>

#include "checker/absorption.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/approx.hpp"

namespace csrlmrm::core {

linalg::CsrMatrix generator(const RateMatrix& rates) {
  linalg::CsrBuilder builder(rates.num_states(), rates.num_states());
  for (StateIndex s = 0; s < rates.num_states(); ++s) {
    for (const auto& e : rates.transitions(s)) builder.add(s, e.col, e.value);
    builder.add(s, s, -rates.exit_rate(s));
  }
  return builder.build();
}

}  // namespace csrlmrm::core

namespace csrlmrm::checker {

std::vector<double> steady_state_distribution(const core::Mrm& model, core::StateIndex start,
                                              const linalg::IterativeOptions& solver) {
  if (start >= model.num_states()) {
    throw std::invalid_argument("steady_state_distribution: start out of range");
  }
  const std::size_t n = model.num_states();
  const std::vector<bool> everywhere(n, true);
  std::vector<double> result(n, 0.0);
  for (const auto& [states, pi] : bottom_components(model, solver)) {
    // P(start, Diamond B) = P(start, tt U atB) (eq. 3.8, via the
    // extra-proposition trick of section 4.2).
    std::vector<bool> in_component(n, false);
    for (const core::StateIndex s : states) in_component[s] = true;
    const double reach =
        unbounded_until_probabilities(model, everywhere, in_component, solver)[start];
    if (core::exactly_zero(reach)) continue;
    for (std::size_t i = 0; i < states.size(); ++i) result[states[i]] += reach * pi[i];
  }
  return result;
}

std::vector<double> expected_time_to_hit(const core::Mrm& model,
                                         const std::vector<bool>& target,
                                         const linalg::IterativeOptions& solver) {
  return expected_cost_to_hit(model, target, std::vector<double>(model.num_states(), 1.0),
                              /*with_impulses=*/false, solver);
}

}  // namespace csrlmrm::checker
