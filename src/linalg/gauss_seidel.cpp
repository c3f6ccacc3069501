#include "linalg/gauss_seidel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/vector_ops.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::linalg {

namespace {

/// A square matrix split once per solve (see the header): row i's
/// off-diagonal entries, in stored column order, span [start[i], start[i+1])
/// of `column`/`value`; an unstored diagonal reads 0.
struct DiagonalSplit {
  std::vector<double> diagonal;
  std::vector<std::size_t> start;
  std::vector<std::uint32_t> column;
  std::vector<double> value;

  explicit DiagonalSplit(const CsrMatrix& A) : diagonal(A.rows(), 0.0), start(A.rows() + 1, 0) {
    if (A.cols() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("Gauss-Seidel: " + std::to_string(A.cols()) +
                                  " columns exceed the 32-bit index range");
    }
    column.reserve(A.non_zeros());
    value.reserve(A.non_zeros());
    for (std::size_t i = 0; i < A.rows(); ++i) {
      for (const Entry& e : A.row(i)) {
        if (e.col == i) {
          diagonal[i] = e.value;
        } else {
          column.push_back(static_cast<std::uint32_t>(e.col));
          value.push_back(e.value);
        }
      }
      start[i + 1] = column.size();
    }
  }

  /// sum_{j != i} A(i, j) * x[j], accumulated in stored column order.
  double off_diagonal_dot(std::size_t i, const double* x) const {
    double sum = 0.0;
    for (std::size_t k = start[i]; k < start[i + 1]; ++k) sum += value[k] * x[column[k]];
    return sum;
  }
};

}  // namespace

IterativeResult gauss_seidel_solve(const CsrMatrix& A, const std::vector<double>& b,
                                   std::vector<double>& x, const IterativeOptions& options) {
  obs::ScopedTimer timer("solver.gauss_seidel");
  obs::counter_add("solver.gauss_seidel.calls");
  const std::size_t n = A.rows();
  if (A.cols() != n) throw std::invalid_argument("gauss_seidel_solve: matrix not square");
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("gauss_seidel_solve: vector size mismatch");
  }
  const DiagonalSplit split(A);
  for (std::size_t i = 0; i < n; ++i) {
    if (core::exactly_zero(split.diagonal[i])) {
      throw std::invalid_argument("gauss_seidel_solve: zero diagonal at row " +
                                  std::to_string(i));
    }
  }

  IterativeResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double next = (b[i] - split.off_diagonal_dot(i, x.data())) / split.diagonal[i];
      delta = std::max(delta, std::abs(next - x[i]));
      x[i] = next;
    }
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  obs::counter_add("solver.gauss_seidel.iterations", result.iterations);
  return result;
}

std::vector<double> steady_state_gauss_seidel(const CsrMatrix& Q, const IterativeOptions& options,
                                              IterativeResult* result_out) {
  obs::ScopedTimer timer("solver.steady_state_gauss_seidel");
  obs::counter_add("solver.steady_state_gauss_seidel.calls");
  const std::size_t n = Q.rows();
  if (Q.cols() != n) throw std::invalid_argument("steady_state_gauss_seidel: Q not square");
  if (n == 0) throw std::invalid_argument("steady_state_gauss_seidel: empty generator");

  if (n == 1) {
    if (result_out) *result_out = {true, 0, 0.0};
    return {1.0};
  }

  // Work on Q^T: the i-th steady-state balance equation reads
  //   E(i) * pi_i = sum_{j != i} R(j,i) * pi_j,
  // and Q^T keeps Q's diagonal, -E(i).
  const DiagonalSplit split(Q.transposed());
  std::vector<double> exit_rate(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    exit_rate[i] = -split.diagonal[i];
    if (!(exit_rate[i] > 0.0)) {
      throw std::invalid_argument("steady_state_gauss_seidel: state " + std::to_string(i) +
                                  " has zero exit rate; generator is not irreducible");
    }
  }

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> prev(n, 0.0);
  IterativeResult result;
  // Phase 1 runs plain Gauss-Seidel sweeps; for (nearly) periodic chains —
  // e.g. a BSCC that is one directed cycle — the undamped iteration can
  // oscillate forever, so phase 2 retries with a damped update
  // pi_i <- (1-omega) pi_i + omega * inflow_i / E(i), which breaks the
  // periodicity while keeping the same fixed point.
  const std::size_t phase1 = std::min<std::size_t>(1000, options.max_iterations / 2);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const double omega = iter < phase1 ? 1.0 : 0.5;
    std::copy(pi.begin(), pi.end(), prev.begin());
    for (std::size_t i = 0; i < n; ++i) {
      const double inflow = split.off_diagonal_dot(i, pi.data());
      pi[i] = (1.0 - omega) * pi[i] + omega * inflow / exit_rate[i];
    }
    normalize_to_distribution(pi);
    result.iterations = iter + 1;
    result.final_delta = linf_distance(prev, pi);
    if (result.final_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  obs::counter_add("solver.steady_state_gauss_seidel.iterations", result.iterations);
  if (result_out) *result_out = result;
  return pi;
}

}  // namespace csrlmrm::linalg
