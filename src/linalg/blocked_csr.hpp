// Cache-blocked layout of a CsrMatrix for repeated matrix-vector products.
//
// The uniformization series performs hundreds of y = A*x gathers over the
// same matrix. The plain CSR walk pays 16 bytes per stored entry (8-byte
// column + 8-byte value in Entry) and processes one row at a time, so on
// million-state models the kernel is purely memory-bound. This layout packs
// the matrix into fixed-height row chunks (SELL-C style, C = the SIMD lane
// count of core::simd::DoubleVec):
//
//   * rows are grouped into chunks of kChunkRows consecutive rows;
//   * within a chunk, entries are stored slot-major — slot j holds the j-th
//     stored entry of each of the C rows side by side — padded with explicit
//     (value 0.0, column 0) entries up to the widest row of the chunk;
//   * column indices are 32-bit, cutting index bandwidth in half.
//
// multiply_into is bitwise identical to CsrMatrix::multiply_into at every
// thread count for finite x: each lane accumulates exactly its row's entries
// in ascending column order with one multiply and one add per entry (the
// DoubleVec operations are elementwise, no FMA contraction, no horizontal
// reduction), and the padding terms add literal +0.0 products which cannot
// change any finite accumulation (the accumulator starts at +0.0 and a sum
// only produces -0.0 when both addends are -0.0, so adding a signed zero is
// always a bitwise no-op). tests/test_blocked_spmv.cpp property-tests the
// identity over random MRMs at 1/2/8 threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "linalg/csr_matrix.hpp"

namespace csrlmrm::linalg {

/// Immutable blocked (SELL-C) copy of a CsrMatrix, specialized for repeated
/// right multiplications y = A * x.
class BlockedCsrMatrix {
 public:
  /// Rows per chunk: the SIMD lane count, so one DoubleVec accumulates one
  /// chunk (4 vectorized, 1 in the scalar fallback build).
  static constexpr std::size_t kChunkRows = core::simd::DoubleVec::kLanes;

  /// Empty 0x0 matrix.
  BlockedCsrMatrix() = default;

  /// Repacks `matrix`. Throws std::invalid_argument when the column count
  /// exceeds the 32-bit index range (4.29e9 states is beyond the design
  /// target of 10^7).
  explicit BlockedCsrMatrix(const CsrMatrix& matrix);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Stored entries of the source matrix (padding excluded).
  std::size_t non_zeros() const { return non_zeros_; }
  /// Stored slots including padding; padded/non_zeros - 1 is the overhead
  /// the chunk layout pays for row-length variance.
  std::size_t padded_entries() const { return values_.size(); }

  /// y = A * x into a caller-owned buffer; bitwise identical to
  /// CsrMatrix::multiply_into on the source matrix at every thread count.
  /// Requires finite x (the uniformization series reject non-finite input
  /// vectors); `y` must not alias `x`. Sizes are checked.
  void multiply_into(const std::vector<double>& x, std::vector<double>& y,
                     unsigned threads = 1) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t non_zeros_ = 0;
  /// chunk_ptr_[c] is the index (into values_/columns_) of chunk c's first
  /// slot; chunk widths are (chunk_ptr_[c+1] - chunk_ptr_[c]) / kChunkRows.
  std::vector<std::size_t> chunk_ptr_{0};
  std::vector<double> values_;
  std::vector<std::uint32_t> columns_;
};

}  // namespace csrlmrm::linalg
