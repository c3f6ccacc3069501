#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "core/approx.hpp"

namespace csrlmrm::linalg {

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= rows_ || col >= cols_) {
    throw std::out_of_range("CsrBuilder::add: index (" + std::to_string(row) + "," +
                            std::to_string(col) + ") outside " + std::to_string(rows_) +
                            "x" + std::to_string(cols_));
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("CsrBuilder::add: non-finite value");
  }
  if (core::exactly_zero(value)) return;
  triplets_.push_back({row, col, value});
}

void CsrBuilder::reserve(std::size_t entries) { triplets_.reserve(entries); }

CsrMatrix CsrBuilder::build() const {
  const auto row_major = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  // Streamed producers (BFS generators, the model-file readers) append
  // triplets in row-major order already; detecting that skips both the
  // O(nnz log nnz) sort and its full working copy, making the common
  // large-model build a single pass over the input.
  const bool presorted = std::is_sorted(triplets_.begin(), triplets_.end(), row_major);
  std::vector<Triplet> copy;
  if (!presorted) {
    copy = triplets_;
    std::sort(copy.begin(), copy.end(), row_major);
  }
  const std::vector<Triplet>& sorted = presorted ? triplets_ : copy;

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<Entry> entries;
  entries.reserve(sorted.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    while (i < sorted.size() && sorted[i].row == r) {
      double v = sorted[i].value;
      const std::size_t c = sorted[i].col;
      ++i;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        v += sorted[i].value;
        ++i;
      }
      if (!core::exactly_zero(v)) entries.push_back({c, v});
    }
    row_ptr[r + 1] = entries.size();
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(entries));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<Entry> entries)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)), entries_(std::move(entries)) {
  if (row_ptr_.size() != rows_ + 1 || row_ptr_.front() != 0 ||
      row_ptr_.back() != entries_.size()) {
    throw std::invalid_argument("CsrMatrix: inconsistent row_ptr");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1]) {
      throw std::invalid_argument("CsrMatrix: row_ptr not monotone");
    }
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (entries_[k].col >= cols_) throw std::invalid_argument("CsrMatrix: column out of range");
      if (k > row_ptr_[r] && entries_[k - 1].col >= entries_[k].col) {
        throw std::invalid_argument("CsrMatrix: row columns not strictly ascending");
      }
    }
  }
}

std::span<const Entry> CsrMatrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("CsrMatrix::row: " + std::to_string(r));
  return {entries_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  const auto entries = row(r);
  const auto it = std::lower_bound(entries.begin(), entries.end(), c,
                                   [](const Entry& e, std::size_t col) { return e.col < col; });
  return (it != entries.end() && it->col == c) ? it->value : 0.0;
}

std::vector<double> CsrMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (const Entry& e : row(r)) acc += e.value * x[e.col];
    y[r] = acc;
  }
  return y;
}

std::vector<double> CsrMatrix::left_multiply(const std::vector<double>& x) const {
  if (x.size() != rows_) throw std::invalid_argument("CsrMatrix::left_multiply: size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (core::exactly_zero(xr)) continue;
    for (const Entry& e : row(r)) y[e.col] += xr * e.value;
  }
  return y;
}

void CsrMatrix::multiply_into(const std::vector<double>& x, std::vector<double>& y,
                              unsigned threads) const {
  if (x.size() != cols_) throw std::invalid_argument("CsrMatrix::multiply_into: size mismatch");
  if (y.size() != rows_) throw std::invalid_argument("CsrMatrix::multiply_into: output size mismatch");
  if (&x == &y) throw std::invalid_argument("CsrMatrix::multiply_into: x and y must not alias");
  obs::counter_add("spmv.calls");
  obs::counter_add("spmv.rows", rows_);
  const unsigned effective = parallel::choose_thread_count(threads, non_zeros());
  parallel::parallel_for(rows_, effective, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const Entry* entry = entries_.data() + row_ptr_[r];
      const Entry* stop = entries_.data() + row_ptr_[r + 1];
      double acc = 0.0;
      for (; entry != stop; ++entry) acc += entry->value * x[entry->col];
      y[r] = acc;
    }
  });
}

double CsrMatrix::row_sum(std::size_t r) const {
  double acc = 0.0;
  for (const Entry& e : row(r)) acc += e.value;
  return acc;
}

CsrMatrix CsrMatrix::transposed() const {
  // Counting sort by column: prefix-summed column counts are the transpose's
  // row starts, and scattering the rows in ascending order leaves every
  // transposed row sorted. Stored zeros are dropped, as CsrBuilder drops them.
  std::vector<std::size_t> row_ptr(cols_ + 1, 0);
  for (const Entry& e : entries_) {
    if (!core::exactly_zero(e.value)) ++row_ptr[e.col + 1];
  }
  for (std::size_t c = 0; c < cols_; ++c) row_ptr[c + 1] += row_ptr[c];
  std::vector<Entry> entries(row_ptr[cols_]);
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const Entry& e = entries_[k];
      if (!core::exactly_zero(e.value)) entries[cursor[e.col]++] = {r, e.value};
    }
  }
  return CsrMatrix(cols_, rows_, std::move(row_ptr), std::move(entries));
}

std::vector<std::vector<double>> CsrMatrix::to_dense() const {
  std::vector<std::vector<double>> dense(rows_, std::vector<double>(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const Entry& e : row(r)) dense[r][e.col] = e.value;
  }
  return dense;
}

}  // namespace csrlmrm::linalg
