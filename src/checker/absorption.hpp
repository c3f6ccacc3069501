// Expected hitting times and expected accumulated cost until hitting —
// classic dependability companions to the CSRL measures (MTTF, mean cost to
// failure). First-step analysis over the embedded chain:
//
//   E_s[T_hit]  = 1/E(s) + sum_s' P(s,s') E_s'[T_hit]           (s not target)
//   E_s[Y_hit]  = rho(s)/E(s)
//              + sum_s' P(s,s') ( iota(s,s') + E_s'[Y_hit] )    (s not target)
//
// with value 0 on target states. Both are finite exactly for states that
// reach the target with probability 1; everywhere else they are +infinity
// (a positive-probability escape makes the conditional expectation
// ill-defined, and the unconditional one diverges). first_step_solve is the
// checker's one solver of such systems: P0, S and R[S] use it too.
#pragma once

#include <vector>

#include "core/mrm.hpp"
#include "linalg/solver_types.hpp"

namespace csrlmrm::checker {

/// Solves x(s) = sojourn_rate(s)/E(s) + sum_s' P(s,s') (iota(s,s') + x(s'))
/// over the states with `unknown[s]` set, by Gauss-Seidel from 0; every
/// other entry of `x` is a boundary value, read and left untouched. An empty
/// `sojourn_rate` means 0; iota counts only `with_impulses`. The caller's
/// graph analysis must make every unknown state leave the unknown set with
/// probability 1. Throws std::invalid_argument on a size mismatch and
/// std::runtime_error when the solve does not converge.
void first_step_solve(const core::Mrm& model, const std::vector<bool>& unknown,
                      const std::vector<double>& sojourn_rate, bool with_impulses,
                      std::vector<double>& x, const linalg::IterativeOptions& solver);

/// E[ time until first hitting `target` ] per starting state; +infinity for
/// states whose hitting probability is below 1 (including states from which
/// the target is unreachable: every state when the target is empty). Throws
/// std::invalid_argument on mask size mismatch.
std::vector<double> expected_time_to_hit(const core::Mrm& model,
                                         const std::vector<bool>& target,
                                         const linalg::IterativeOptions& solver = {});

/// E[ reward accumulated until first hitting `target` ], counting state
/// rewards over the sojourn and impulse rewards of every transition taken
/// (including the final one into the target). Same infinity semantics as
/// expected_time_to_hit.
std::vector<double> expected_reward_to_hit(const core::Mrm& model,
                                           const std::vector<bool>& target,
                                           const linalg::IterativeOptions& solver = {});

}  // namespace csrlmrm::checker
