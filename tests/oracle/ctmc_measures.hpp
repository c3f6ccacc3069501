// Reference CTMC measures the tests check the checker's solvers against:
// the infinitesimal generator Q, the long-run distribution from one start
// summed per BSCC, and the expected time to hit a set.
#pragma once

#include <vector>

#include "core/mrm.hpp"
#include "core/rate_matrix.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/solver_types.hpp"

namespace csrlmrm::core {

/// Infinitesimal generator Q = R - Diag(E) as a sparse matrix.
linalg::CsrMatrix generator(const RateMatrix& rates);

}  // namespace csrlmrm::core

namespace csrlmrm::checker {

/// The full long-run distribution started from `start`:
/// result[s'] = pi(start, {s'}), summed per BSCC with one unbounded-until
/// solve each, independently of the checker's one absorption solve.
std::vector<double> steady_state_distribution(const core::Mrm& model, core::StateIndex start,
                                              const linalg::IterativeOptions& solver = {});

/// E[ time until first hitting `target` ] per starting state: the expected
/// cost at rate 1 without impulses; +infinity for states whose hitting
/// probability is below 1 (including states from which the target is
/// unreachable: every state when the target is empty). Throws
/// std::invalid_argument on mask size mismatch.
std::vector<double> expected_time_to_hit(const core::Mrm& model,
                                         const std::vector<bool>& target,
                                         const linalg::IterativeOptions& solver = {});

}  // namespace csrlmrm::checker
