#include "linalg/dense_solve.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::linalg {

std::vector<double> dense_solve(std::vector<std::vector<double>> A, std::vector<double> b) {
  obs::ScopedTimer timer("solver.dense_solve");
  obs::counter_add("solver.dense_solve.calls");
  const std::size_t n = A.size();
  if (b.size() != n) throw std::invalid_argument("dense_solve: rhs size mismatch");
  for (const auto& row : A) {
    if (row.size() != n) throw std::invalid_argument("dense_solve: matrix not square");
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining |entry| of column k up.
    std::size_t pivot = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(A[i][k]) > std::abs(A[pivot][k])) pivot = i;
    }
    if (std::abs(A[pivot][k]) < 1e-300) {
      throw std::domain_error("dense_solve: singular matrix at column " + std::to_string(k));
    }
    std::swap(A[k], A[pivot]);
    std::swap(b[k], b[pivot]);

    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = A[i][k] / A[k][k];
      if (core::exactly_zero(factor)) continue;
      for (std::size_t j = k; j < n; ++j) A[i][j] -= factor * A[k][j];
      b[i] -= factor * b[k];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= A[ii][j] * x[j];
    x[ii] = acc / A[ii][ii];
  }
  return x;
}

}  // namespace csrlmrm::linalg
