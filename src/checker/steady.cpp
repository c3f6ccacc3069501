#include "checker/steady.hpp"

#include <stdexcept>

#include "checker/until.hpp"
#include "graph/scc.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::checker {

namespace {

/// The BSCC decomposition with, per component, its internal steady-state
/// vector and the per-state probabilities of ever entering it.
struct SteadyAnalysis {
  std::vector<std::vector<core::StateIndex>> bsccs;
  std::vector<std::vector<double>> steady_within;    // aligned with bsccs[i]
  std::vector<std::vector<double>> reach_probability;  // [i][s] = P(s, Diamond B_i)
};

SteadyAnalysis analyze(const core::Mrm& model, const linalg::IterativeOptions& solver) {
  obs::ScopedTimer timer("checker.steady");
  obs::counter_add("checker.steady.calls");
  SteadyAnalysis analysis;
  analysis.bsccs = graph::bottom_sccs(model.rates().matrix());
  obs::counter_add("checker.steady.bsccs", analysis.bsccs.size());
  const std::size_t n = model.num_states();

  const std::vector<bool> everywhere(n, true);
  for (const auto& component : analysis.bsccs) {
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
    analysis.steady_within.push_back(
        linalg::steady_state_gauss_seidel(generator, solver, &outcome));
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
      analysis.steady_within.back() = linalg::dense_solve(std::move(dense), std::move(rhs));
    }

    // P(s, Diamond B) = P(s, tt U atB) (eq. 3.8, via the extra-proposition
    // trick of section 4.2).
    std::vector<bool> in_component(n, false);
    for (const core::StateIndex s : component) in_component[s] = true;
    analysis.reach_probability.push_back(
        unbounded_until_probabilities(model, everywhere, in_component, solver));
  }
  return analysis;
}

}  // namespace

std::vector<double> steady_state_expectation(const core::Mrm& model,
                                             const std::vector<double>& value,
                                             const linalg::IterativeOptions& solver) {
  if (value.size() != model.num_states()) {
    throw std::invalid_argument("steady_state_expectation: value size mismatch");
  }
  const SteadyAnalysis analysis = analyze(model, solver);
  const std::size_t n = model.num_states();

  std::vector<double> result(n, 0.0);
  for (std::size_t b = 0; b < analysis.bsccs.size(); ++b) {
    double within = 0.0;  // sum_{s' in B} pi^B(s') value(s')
    for (std::size_t i = 0; i < analysis.bsccs[b].size(); ++i) {
      within += analysis.steady_within[b][i] * value[analysis.bsccs[b][i]];
    }
    if (core::exactly_zero(within)) continue;
    for (core::StateIndex s = 0; s < n; ++s) {
      result[s] += analysis.reach_probability[b][s] * within;
    }
  }
  return result;
}

std::vector<double> steady_state_probability_of_set(const core::Mrm& model,
                                                    const std::vector<bool>& target,
                                                    const linalg::IterativeOptions& solver) {
  if (target.size() != model.num_states()) {
    throw std::invalid_argument("steady_state_probability_of_set: mask size mismatch");
  }
  // pi * 1.0 == pi and x + pi * 0.0 == x exactly, so the indicator case sums
  // the same terms in the same order as a sum over B ∩ target alone.
  std::vector<double> indicator(target.size(), 0.0);
  for (std::size_t s = 0; s < target.size(); ++s) {
    if (target[s]) indicator[s] = 1.0;
  }
  return steady_state_expectation(model, indicator, solver);
}

std::vector<double> steady_state_distribution(const core::Mrm& model, core::StateIndex start,
                                              const linalg::IterativeOptions& solver) {
  if (start >= model.num_states()) {
    throw std::invalid_argument("steady_state_distribution: start out of range");
  }
  const SteadyAnalysis analysis = analyze(model, solver);
  std::vector<double> result(model.num_states(), 0.0);
  for (std::size_t b = 0; b < analysis.bsccs.size(); ++b) {
    const double reach = analysis.reach_probability[b][start];
    if (core::exactly_zero(reach)) continue;
    for (std::size_t i = 0; i < analysis.bsccs[b].size(); ++i) {
      result[analysis.bsccs[b][i]] += reach * analysis.steady_within[b][i];
    }
  }
  return result;
}

}  // namespace csrlmrm::checker
