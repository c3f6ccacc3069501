#include "oracle/linalg_reference.hpp"

#include <cmath>
#include <stdexcept>

#include "core/approx.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::linalg {

std::vector<double> multiply(const CsrMatrix& A, const std::vector<double>& x) {
  if (x.size() != A.cols()) throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  std::vector<double> y(A.rows(), 0.0);
  for (std::size_t r = 0; r < A.rows(); ++r) {
    double acc = 0.0;
    for (const Entry& e : A.row(r)) acc += e.value * x[e.col];
    y[r] = acc;
  }
  return y;
}

std::vector<double> left_multiply(const CsrMatrix& A, const std::vector<double>& x) {
  if (x.size() != A.rows()) {
    throw std::invalid_argument("CsrMatrix::left_multiply: size mismatch");
  }
  std::vector<double> y(A.cols(), 0.0);
  for (std::size_t r = 0; r < A.rows(); ++r) {
    const double xr = x[r];
    if (core::exactly_zero(xr)) continue;
    for (const Entry& e : A.row(r)) y[e.col] += xr * e.value;
  }
  return y;
}

void multiply_into(const CsrMatrix& A, const std::vector<double>& x, std::vector<double>& y,
                   unsigned threads) {
  if (x.size() != A.cols()) {
    throw std::invalid_argument("CsrMatrix::multiply_into: size mismatch");
  }
  if (y.size() != A.rows()) {
    throw std::invalid_argument("CsrMatrix::multiply_into: output size mismatch");
  }
  if (&x == &y) throw std::invalid_argument("CsrMatrix::multiply_into: x and y must not alias");
  obs::counter_add("spmv.calls");
  obs::counter_add("spmv.rows", A.rows());
  const unsigned effective = parallel::choose_thread_count(threads, A.non_zeros());
  parallel::parallel_for(A.rows(), effective, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (const Entry& e : A.row(r)) acc += e.value * x[e.col];
      y[r] = acc;
    }
  });
}

double row_sum(const CsrMatrix& A, std::size_t r) {
  double acc = 0.0;
  for (const Entry& e : A.row(r)) acc += e.value;
  return acc;
}

std::vector<double> dense_solve(const CsrMatrix& A, const std::vector<double>& b) {
  return dense_solve(A.to_dense(), b);
}

bool is_distribution(const std::vector<double>& v, double tolerance) {
  for (double e : v) {
    if (e < -tolerance || e > 1.0 + tolerance) return false;
  }
  return std::abs(sum(v) - 1.0) <= tolerance;
}

}  // namespace csrlmrm::linalg
