// Steady-state operator (sections 3.7 and 4.2).
//
// pi(s, A) — the long-run probability of being in a state of A when started
// in s — follows the BSCC decomposition of Algorithm 4.2: each bottom
// strongly connected component B is an irreducible CTMC with steady-state
// vector pi^B (Gauss-Seidel), and eq. (3.2) combines them:
//
//   pi(s, A) = sum_B P(s, Diamond B) * sum_{s' in B ∩ A} pi^B(s').
//
// That sum is solved as one absorption system: each BSCC pays the terminal
// value w_B = sum_{s' in B} pi^B(s') value(s'), and one first_step_solve
// carries those values to the transient states. Any per-state value weighs
// the same way, which is how R[S] gets the expected gain for every start.
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::checker {

/// sum_B P(s, Diamond B) * sum_{s' in B} pi^B(s') * value(s') for every
/// starting state s: the long-run expectation of `value` (one entry per
/// state), from one BSCC analysis and at most one linear solve for all
/// starts; exactly 0 where no BSCC with w_B != 0 is reachable. The solve
/// stops on a step below solver.tolerance * max_B |w_B|, so a value made of
/// much smaller weights alone keeps an absolute error of about that size.
std::vector<double> steady_state_expectation(const core::Mrm& model,
                                             const std::vector<double>& value,
                                             const linalg::IterativeOptions& solver = {});

/// pi(s, target) for every starting state s: steady_state_expectation of the
/// indicator of `target`. `target` must have one entry per state
/// (std::invalid_argument otherwise).
std::vector<double> steady_state_probability_of_set(const core::Mrm& model,
                                                    const std::vector<bool>& target,
                                                    const linalg::IterativeOptions& solver = {});

/// The full long-run distribution started from `start`:
/// result[s'] = pi(start, {s'}), summed per BSCC with one unbounded-until
/// solve each — the tests' independent oracle; the checker never calls it.
std::vector<double> steady_state_distribution(const core::Mrm& model, core::StateIndex start,
                                              const linalg::IterativeOptions& solver = {});

}  // namespace csrlmrm::checker
