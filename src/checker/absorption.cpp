#include "checker/absorption.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "graph/reachability.hpp"
#include "linalg/gauss_seidel.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::checker {

void first_step_solve(const core::Mrm& model, const std::vector<bool>& unknown,
                      const std::vector<double>& sojourn_rate, bool with_impulses,
                      std::vector<double>& x, const linalg::IterativeOptions& solver) {
  obs::ScopedTimer timer("checker.first_step");
  const std::size_t n = model.num_states();
  if (unknown.size() != n || x.size() != n ||
      (!sojourn_rate.empty() && sojourn_rate.size() != n)) {
    throw std::invalid_argument("first_step_solve: vector size mismatch");
  }
  std::vector<core::StateIndex> states;
  std::vector<std::size_t> index(n, n);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (unknown[s]) {
      index[s] = states.size();
      states.push_back(s);
    }
  }
  if (states.empty()) return;
  obs::counter_add("checker.first_step.calls");

  // (I - P_UU) y = b over the unknown states U; every other successor's
  // boundary value moves into b. A zero boundary without an impulse adds
  // p * 0.0 = +0.0, which leaves b bitwise as if the transition were skipped.
  // Triplets go in row-major order (the diagonal before the first column
  // >= i), so the builder takes its presorted single pass; a self-loop
  // merges as 1.0 + (-p).
  linalg::CsrBuilder builder(states.size(), states.size());
  std::vector<double> rhs(states.size(), 0.0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    const core::StateIndex s = states[i];
    const double exit = model.rates().exit_rate(s);
    bool diagonal_added = false;
    if (!sojourn_rate.empty()) rhs[i] = sojourn_rate[s] / exit;
    for (const auto& e : model.rates().transitions(s)) {
      const double p = e.value / exit;
      const double impulse = with_impulses ? model.impulse_reward(s, e.col) : 0.0;
      if (index[e.col] == n) {
        rhs[i] += p * (impulse + x[e.col]);
      } else {
        if (with_impulses) rhs[i] += p * impulse;
        if (!diagonal_added && index[e.col] >= i) {
          builder.add(i, i, 1.0);
          diagonal_added = true;
        }
        builder.add(i, index[e.col], -p);
      }
    }
    if (!diagonal_added) builder.add(i, i, 1.0);
  }
  std::vector<double> y(states.size(), 0.0);
  const auto outcome = linalg::gauss_seidel_solve(builder.build(), rhs, y, solver);
  if (!outcome.converged) {
    throw std::runtime_error("first_step_solve: Gauss-Seidel did not converge in " +
                             std::to_string(outcome.iterations) + " iterations");
  }
  for (std::size_t i = 0; i < states.size(); ++i) x[states[i]] = y[i];
}

namespace {

/// Zero on targets, +infinity where the hitting probability is below 1
/// (determined exactly by graph analysis: P(s, Diamond target) = 1 iff s
/// cannot reach any state from which the target is unreachable), and the
/// first-step solution everywhere else.
std::vector<double> expected_cost_to_hit(const core::Mrm& model,
                                         const std::vector<bool>& target,
                                         const std::vector<double>& sojourn_rate,
                                         bool with_impulses,
                                         const linalg::IterativeOptions& solver) {
  const std::size_t n = model.num_states();
  if (target.size() != n) {
    throw std::invalid_argument("expected_cost_to_hit: target mask size mismatch");
  }
  const auto& adjacency = model.rates().matrix();
  std::vector<bool> doomed = graph::backward_reachable(adjacency, target);
  doomed.flip();  // cannot reach the target at all
  // States with hitting probability < 1: those that can reach a doomed state.
  // P = 1 is closed under successors, so every successor of an unknown state
  // is a target or another unknown.
  const std::vector<bool> sub_one = graph::backward_reachable(adjacency, doomed);

  std::vector<double> result(n, std::numeric_limits<double>::infinity());
  std::vector<bool> unknown(n, false);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (target[s]) result[s] = 0.0;
    unknown[s] = !target[s] && !sub_one[s];
  }
  first_step_solve(model, unknown, sojourn_rate, with_impulses, result, solver);
  return result;
}

}  // namespace

std::vector<double> expected_time_to_hit(const core::Mrm& model,
                                         const std::vector<bool>& target,
                                         const linalg::IterativeOptions& solver) {
  return expected_cost_to_hit(model, target, std::vector<double>(model.num_states(), 1.0),
                              /*with_impulses=*/false, solver);
}

std::vector<double> expected_reward_to_hit(const core::Mrm& model,
                                           const std::vector<bool>& target,
                                           const linalg::IterativeOptions& solver) {
  return expected_cost_to_hit(model, target, model.state_rewards(), /*with_impulses=*/true,
                              solver);
}

}  // namespace csrlmrm::checker
