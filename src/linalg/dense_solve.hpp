// Dense Gaussian elimination with partial pivoting.
//
// The thesis mentions direct methods ("standard means such as Gaussian
// elimination", 3.8.2) as an alternative to Gauss-Seidel; we provide one for
// small systems, for cross-checking the iterative solvers in tests, and as
// the fallback when an iterative method stalls.
#pragma once

#include <vector>

namespace csrlmrm::linalg {

/// Solves the dense system A x = b by Gaussian elimination with partial
/// pivoting. A is row-major, square. Throws std::invalid_argument on shape
/// mismatch and std::domain_error when A is (numerically) singular.
std::vector<double> dense_solve(std::vector<std::vector<double>> A, std::vector<double> b);

}  // namespace csrlmrm::linalg
