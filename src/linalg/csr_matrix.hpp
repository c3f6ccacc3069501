// Compressed sparse row (CSR) matrix of doubles.
//
// This is the storage format for rate matrices and uniformized transition
// matrices throughout the library. Matrices are built through CsrBuilder
// (which accepts triplets in any order, merging duplicates by addition) and
// are immutable afterwards, so algorithms can hold references without
// worrying about invalidation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace csrlmrm::linalg {

/// One explicitly stored entry of a sparse matrix row: column index + value.
struct Entry {
  std::size_t col = 0;
  double value = 0.0;
  friend bool operator==(const Entry&, const Entry&) = default;
};

class CsrMatrix;

/// Incremental builder for CsrMatrix. Triplets may be added in any order;
/// duplicates (same row and column) are summed. Explicit zeros are dropped.
class CsrBuilder {
 public:
  /// Creates a builder for a rows x cols matrix.
  CsrBuilder(std::size_t rows, std::size_t cols);

  /// Adds `value` to entry (row, col). Throws std::out_of_range for indices
  /// beyond the declared shape and std::invalid_argument for non-finite
  /// values.
  void add(std::size_t row, std::size_t col, double value);

  /// Pre-allocates room for `entries` triplets. Streamed producers that know
  /// the transition count up front (model-file headers, generator hints) call
  /// this once so a million-entry build performs one allocation instead of a
  /// doubling cascade.
  void reserve(std::size_t entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Finalizes into an immutable CSR matrix. The builder stays usable (its
  /// accumulated triplets are preserved), which makes incremental model
  /// construction in tests convenient.
  CsrMatrix build() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  struct Triplet {
    std::size_t row;
    std::size_t col;
    double value;
  };
  std::vector<Triplet> triplets_;
};

/// Immutable sparse matrix in CSR layout.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Builds from raw CSR arrays. `row_ptr` must have rows+1 entries ending in
  /// cols_and_values size; used by CsrBuilder and by tests constructing
  /// matrices directly.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<Entry> entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of explicitly stored (non-zero) entries.
  std::size_t non_zeros() const { return entries_.size(); }

  /// The stored entries of one row, ordered by ascending column index.
  std::span<const Entry> row(std::size_t r) const;

  /// Value at (r, c); 0.0 when the entry is not stored. O(log nnz(row)).
  double at(std::size_t r, std::size_t c) const;

  /// The transposed matrix (stored entries re-bucketed by column with one
  /// counting pass; stored zeros are dropped). O(rows + cols + nnz).
  CsrMatrix transposed() const;

  /// Returns a dense rows x cols copy (row-major); intended for small
  /// matrices in tests and the dense solver.
  std::vector<std::vector<double>> to_dense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<Entry> entries_;
};

}  // namespace csrlmrm::linalg
