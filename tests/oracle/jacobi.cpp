#include "oracle/jacobi.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::linalg {

IterativeResult jacobi_solve(const CsrMatrix& A, const std::vector<double>& b,
                             std::vector<double>& x, const IterativeOptions& options) {
  obs::ScopedTimer timer("solver.jacobi");
  obs::counter_add("solver.jacobi.calls");
  const std::size_t n = A.rows();
  if (A.cols() != n) throw std::invalid_argument("jacobi_solve: matrix not square");
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("jacobi_solve: vector size mismatch");
  }

  IterativeResult result;
  std::vector<double> next(n, 0.0);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double off = 0.0;
      double diag = 0.0;
      for (const Entry& e : A.row(i)) {
        if (e.col == i) {
          diag = e.value;
        } else {
          off += e.value * x[e.col];
        }
      }
      if (core::exactly_zero(diag)) {
        throw std::invalid_argument("jacobi_solve: zero diagonal at row " + std::to_string(i));
      }
      next[i] = (b[i] - off) / diag;
      delta = std::max(delta, std::abs(next[i] - x[i]));
    }
    x.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  obs::counter_add("solver.jacobi.iterations", result.iterations);
  return result;
}

}  // namespace csrlmrm::linalg
