// Gauss-Seidel iterative solver.
//
// Two entry points:
//  * gauss_seidel_solve: general A x = b for a matrix with non-zero diagonal
//    (used for reachability probabilities and unbounded-until equations, where
//    A = I - P restricted to transient states is strictly diagonally dominant
//    in the relevant sense and the iteration converges).
//  * steady_state_gauss_seidel: the CTMC steady-state system pi Q = 0 with
//    sum(pi) = 1 for an irreducible generator Q, solved in its transposed form
//    with renormalization each sweep (the method the thesis names in 4.2/5.1).
//
// Both split the matrix once per solve into its diagonal and, per row, the
// off-diagonal entries in stored column order (32-bit columns). A sweep then
// sums each row with no per-entry diagonal test, over the same products in
// the same order as a walk of the stored row that skips the diagonal, so
// iterates, sweep counts and final deltas are bitwise those of that walk.
#pragma once

#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/solver_types.hpp"

namespace csrlmrm::linalg {

/// Solves A x = b in place (x holds the initial guess on entry and the
/// solution on exit) with forward Gauss-Seidel sweeps.
/// Throws std::invalid_argument on shape mismatch, on more than 2^32 - 1
/// columns, or on an exactly zero diagonal entry (naming the first such
/// row). These checks run before the first sweep: on error `x` is
/// untouched, and a zero diagonal throws even when options.max_iterations
/// is 0.
IterativeResult gauss_seidel_solve(const CsrMatrix& A, const std::vector<double>& b,
                                   std::vector<double>& x,
                                   const IterativeOptions& options = {});

/// Steady-state distribution of an irreducible CTMC with generator Q
/// (Q(i,i) = -E(i), off-diagonals are rates). Returns pi with pi Q = 0 and
/// sum(pi) = 1. Throws std::invalid_argument if Q is not square, has more
/// than 2^32 - 1 states, or has a state with zero exit rate (an absorbing
/// state cannot belong to an irreducible CTMC with more than one state).
std::vector<double> steady_state_gauss_seidel(const CsrMatrix& Q,
                                              const IterativeOptions& options = {},
                                              IterativeResult* result = nullptr);

}  // namespace csrlmrm::linalg
