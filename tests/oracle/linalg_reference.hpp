// Reference sparse and dense kernels the tests and benches check the product
// against: the plain CSR products (the series run the blocked SELL-C gather
// of linalg/blocked_csr.hpp instead), row sums, the sparse overload of the
// dense solver and the distribution check.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace csrlmrm::linalg {

/// y = A * x (matrix times column vector). Sizes are checked.
std::vector<double> multiply(const CsrMatrix& A, const std::vector<double>& x);

/// y = x^T * A (row vector times matrix). Sizes are checked.
std::vector<double> left_multiply(const CsrMatrix& A, const std::vector<double>& x);

/// y = A * x written into a caller-owned buffer (no allocation). Each
/// output row is a gather over one CSR row, so with `threads` > 1 the rows
/// fan out over the shared pool; every y[r] is still produced by exactly
/// one accumulation in stored-entry order, so the result is identical at
/// every thread count. `y` must not alias `x`. Sizes are checked.
void multiply_into(const CsrMatrix& A, const std::vector<double>& x, std::vector<double>& y,
                   unsigned threads = 1);

/// Sum of the entries of row r.
double row_sum(const CsrMatrix& A, std::size_t r);

/// dense_solve of A's dense copy. Intended for small systems only.
std::vector<double> dense_solve(const CsrMatrix& A, const std::vector<double>& b);

/// True iff every entry is within `tolerance` of being a probability
/// (in [0,1]) and the entries sum to 1 within `tolerance`.
bool is_distribution(const std::vector<double>& v, double tolerance = 1e-9);

}  // namespace csrlmrm::linalg
