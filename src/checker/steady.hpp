// Steady-state operator (sections 3.7 and 4.2).
//
// pi(s, A) — the long-run probability of being in a state of A when started
// in s — is computed by the BSCC decomposition of Algorithm 4.2: each bottom
// strongly connected component B is an irreducible CTMC with steady-state
// vector pi^B (Gauss-Seidel); the probability of ever entering B from s is an
// unbounded-until query (eq. 3.8); and eq. (3.2) combines them:
//
//   pi(s, A) = sum_B P(s, Diamond B) * sum_{s' in B ∩ A} pi^B(s').
//
// The same decomposition weighs any per-state value, which is how the
// long-run reward rate (R[S]) gets the expected gain for every start state
// from one BSCC analysis.
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::checker {

/// sum_B P(s, Diamond B) * sum_{s' in B} pi^B(s') * value(s') for every
/// starting state s: the long-run expectation of `value` (one entry per
/// state), from one BSCC analysis for all starts.
std::vector<double> steady_state_expectation(const core::Mrm& model,
                                             const std::vector<double>& value,
                                             const linalg::IterativeOptions& solver = {});

/// pi(s, target) for every starting state s: steady_state_expectation of the
/// indicator of `target`. `target` must have one entry per state.
std::vector<double> steady_state_probability_of_set(const core::Mrm& model,
                                                    const std::vector<bool>& target,
                                                    const linalg::IterativeOptions& solver = {});

/// The full long-run distribution started from `start`:
/// result[s'] = pi(start, {s'}). One BSCC analysis per call; the checker
/// never calls it per start state (tests use it as an oracle).
std::vector<double> steady_state_distribution(const core::Mrm& model, core::StateIndex start,
                                              const linalg::IterativeOptions& solver = {});

}  // namespace csrlmrm::checker
