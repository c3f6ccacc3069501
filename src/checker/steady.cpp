#include "checker/steady.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "checker/absorption.hpp"
#include "checker/until.hpp"
#include "graph/reachability.hpp"
#include "graph/scc.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::checker {

namespace {

/// Every bottom strongly connected component with its internal steady-state
/// vector pi^B (aligned with the component's states).
using Bsccs = std::vector<std::pair<std::vector<core::StateIndex>, std::vector<double>>>;

Bsccs bottom_components(const core::Mrm& model, const linalg::IterativeOptions& solver) {
  Bsccs bsccs;
  const std::size_t n = model.num_states();
  for (auto& component : graph::bottom_sccs(model.rates().matrix())) {
    // Steady state within the component: restrict the generator to B (legal
    // because no transition leaves a bottom component).
    linalg::CsrBuilder builder(component.size(), component.size());
    std::vector<std::size_t> local(n, n);
    for (std::size_t i = 0; i < component.size(); ++i) local[component[i]] = i;
    for (std::size_t i = 0; i < component.size(); ++i) {
      const core::StateIndex s = component[i];
      double exit = 0.0;
      for (const auto& e : model.rates().transitions(s)) {
        if (local[e.col] == n) {
          throw std::logic_error("steady: transition leaving a bottom component");
        }
        builder.add(i, local[e.col], e.value);
        exit += e.value;
      }
      builder.add(i, i, -exit);
    }
    linalg::IterativeResult outcome;
    const linalg::CsrMatrix generator = builder.build();
    std::vector<double> pi = linalg::steady_state_gauss_seidel(generator, solver, &outcome);
    if (component.size() > 1 && !outcome.converged) {
      if (component.size() > 4096) {
        throw std::runtime_error("steady: Gauss-Seidel on a BSCC did not converge");
      }
      // Robust fallback for stubborn (e.g. stiff) components: solve the
      // normalized dense system Q^T pi = 0, sum(pi) = 1 directly.
      auto dense = generator.transposed().to_dense();
      std::vector<double> rhs(component.size(), 0.0);
      for (std::size_t c = 0; c < component.size(); ++c) dense.back()[c] = 1.0;
      rhs.back() = 1.0;
      pi = linalg::dense_solve(std::move(dense), std::move(rhs));
    }
    bsccs.emplace_back(std::move(component), std::move(pi));
  }
  obs::counter_add("checker.steady.bsccs", bsccs.size());
  return bsccs;
}

}  // namespace

std::vector<double> steady_state_expectation(const core::Mrm& model,
                                             const std::vector<double>& value,
                                             const linalg::IterativeOptions& solver) {
  if (value.size() != model.num_states()) {
    throw std::invalid_argument("steady_state_expectation: value size mismatch");
  }
  obs::ScopedTimer timer("checker.steady");
  obs::counter_add("checker.steady.calls");
  const std::size_t n = model.num_states();

  // Terminal values w_B = sum_{s' in B} pi^B(s') value(s') on the BSCCs that
  // weigh anything; one solve carries them to the transient states that
  // reach one. Every other state is exactly 0.
  std::vector<double> result(n, 0.0);
  std::vector<bool> weighted(n, false);
  for (const auto& [states, pi] : bottom_components(model, solver)) {
    double within = 0.0;
    for (std::size_t i = 0; i < states.size(); ++i) within += pi[i] * value[states[i]];
    if (core::exactly_zero(within)) continue;
    for (const core::StateIndex s : states) {
      result[s] = within;
      weighted[s] = true;
    }
  }
  std::vector<bool> unknown = graph::backward_reachable(model.rates().matrix(), weighted);
  for (core::StateIndex s = 0; s < n; ++s) unknown[s] = unknown[s] && !weighted[s];
  // Gauss-Seidel stops once a sweep moves the iterate by less than its
  // tolerance; scaled by the largest |w_B|, that stop is relative to it.
  double largest = 0.0;
  for (const double w : result) largest = std::max(largest, std::abs(w));
  linalg::IterativeOptions relative = solver;
  relative.tolerance = solver.tolerance * largest;
  first_step_solve(model, unknown, {}, /*with_impulses=*/false, result, relative);
  return result;
}

std::vector<double> steady_state_probability_of_set(const core::Mrm& model,
                                                    const std::vector<bool>& target,
                                                    const linalg::IterativeOptions& solver) {
  // pi * 1.0 == pi and x + pi * 0.0 == x exactly, so the indicator case sums
  // the same terms in the same order as a sum over B ∩ target alone.
  return steady_state_expectation(model, std::vector<double>(target.begin(), target.end()),
                                  solver);
}

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

}  // namespace csrlmrm::checker
