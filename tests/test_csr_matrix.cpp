#include "linalg/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle/linalg_reference.hpp"

namespace csrlmrm::linalg {
namespace {

CsrMatrix example_matrix() {
  // [ 1 2 0 ]
  // [ 0 0 3 ]
  // [ 4 0 5 ]
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 2, 3.0);
  builder.add(2, 0, 4.0);
  builder.add(2, 2, 5.0);
  return builder.build();
}

TEST(CsrBuilder, RejectsOutOfRangeIndices) {
  CsrBuilder builder(2, 2);
  EXPECT_THROW(builder.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(builder.add(0, 2, 1.0), std::out_of_range);
}

TEST(CsrBuilder, RejectsNonFiniteValues) {
  CsrBuilder builder(1, 1);
  EXPECT_THROW(builder.add(0, 0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(builder.add(0, 0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(CsrBuilder, MergesDuplicateTriplets) {
  CsrBuilder builder(1, 1);
  builder.add(0, 0, 1.5);
  builder.add(0, 0, 2.5);
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.non_zeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
}

TEST(CsrBuilder, DropsEntriesCancellingToZero) {
  CsrBuilder builder(1, 2);
  builder.add(0, 1, 1.0);
  builder.add(0, 1, -1.0);
  EXPECT_EQ(builder.build().non_zeros(), 0u);
}

TEST(CsrBuilder, AcceptsTripletsInAnyOrder) {
  CsrBuilder builder(2, 2);
  builder.add(1, 1, 4.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 3.0);
  builder.add(0, 0, 1.0);
  const CsrMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
}

TEST(CsrMatrix, DefaultConstructedIsEmpty) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.non_zeros(), 0u);
}

TEST(CsrMatrix, AtReturnsZeroForMissingEntries) {
  const CsrMatrix m = example_matrix();
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(CsrMatrix, RowSpansAreOrdered) {
  const CsrMatrix m = example_matrix();
  const auto row2 = m.row(2);
  ASSERT_EQ(row2.size(), 2u);
  EXPECT_EQ(row2[0].col, 0u);
  EXPECT_EQ(row2[1].col, 2u);
}

TEST(CsrMatrix, RowRejectsOutOfRange) {
  EXPECT_THROW(example_matrix().row(3), std::out_of_range);
}

TEST(CsrMatrix, MultiplyComputesMatrixVectorProduct) {
  const auto y = multiply(example_matrix(), {1.0, 2.0, 3.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);   // 1 + 4
  EXPECT_DOUBLE_EQ(y[1], 9.0);   // 3*3
  EXPECT_DOUBLE_EQ(y[2], 19.0);  // 4 + 15
}

TEST(CsrMatrix, LeftMultiplyComputesVectorMatrixProduct) {
  const auto y = left_multiply(example_matrix(), {1.0, 2.0, 3.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 13.0);  // 1 + 12
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 21.0);  // 6 + 15
}

TEST(CsrMatrix, MultiplyRejectsSizeMismatch) {
  EXPECT_THROW(multiply(example_matrix(), {1.0}), std::invalid_argument);
  EXPECT_THROW(left_multiply(example_matrix(), {1.0}), std::invalid_argument);
}

TEST(CsrMatrix, RowSumAddsRowEntries) {
  const CsrMatrix m = example_matrix();
  EXPECT_DOUBLE_EQ(row_sum(m, 0), 3.0);
  EXPECT_DOUBLE_EQ(row_sum(m, 1), 3.0);
  EXPECT_DOUBLE_EQ(row_sum(m, 2), 9.0);
}

TEST(CsrMatrix, TransposeSwapsIndices) {
  const CsrMatrix t = example_matrix().transposed();
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 5.0);
  EXPECT_EQ(t.non_zeros(), example_matrix().non_zeros());
}

TEST(CsrMatrix, DoubleTransposeIsIdentityOperation) {
  const CsrMatrix m = example_matrix();
  const CsrMatrix tt = m.transposed().transposed();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt.at(r, c), m.at(r, c));
  }
}

/// The transpose built the way CsrBuilder would build it: every stored entry
/// re-added as a (col, row) triplet, then sorted.
CsrMatrix builder_transpose(const CsrMatrix& m) {
  CsrBuilder builder(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const Entry& e : m.row(r)) builder.add(e.col, r, e.value);
  }
  return builder.build();
}

/// Same shape, same row extents, same columns, bitwise-same values.
void expect_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.non_zeros(), b.non_zeros());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].col, rb[k].col) << "row " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ra[k].value),
                std::bit_cast<std::uint64_t>(rb[k].value))
          << "row " << r;
    }
  }
}

TEST(CsrMatrix, CountingTransposeMatchesTheBuilderRouteBitwise) {
  // Square and non-square shapes at a few densities; sparse ones leave empty
  // rows and empty columns, which the counting pass must keep as empty
  // transposed rows.
  struct Shape {
    std::size_t rows;
    std::size_t cols;
    double density;
  };
  const Shape shapes[] = {{1, 1, 1.0},  {7, 7, 0.3},   {40, 40, 0.05}, {13, 31, 0.1},
                          {31, 13, 0.1}, {1, 50, 0.2}, {50, 1, 0.2},   {64, 64, 0.0},
                          {25, 60, 0.5}};
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> value(-5.0, 5.0);
  std::size_t empty_rows = 0;
  std::size_t empty_cols = 0;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(std::to_string(shape.rows) + "x" + std::to_string(shape.cols));
    CsrBuilder builder(shape.rows, shape.cols);
    std::vector<bool> row_used(shape.rows, false);
    std::vector<bool> col_used(shape.cols, false);
    for (std::size_t r = 0; r < shape.rows; ++r) {
      for (std::size_t c = 0; c < shape.cols; ++c) {
        if (unit(rng) < shape.density) {
          builder.add(r, c, value(rng));
          row_used[r] = true;
          col_used[c] = true;
        }
      }
    }
    const CsrMatrix m = builder.build();
    const CsrMatrix t = m.transposed();
    expect_bitwise_equal(t, builder_transpose(m));
    expect_bitwise_equal(t.transposed(), m);
    for (std::size_t c = 0; c < shape.cols; ++c) {
      EXPECT_EQ(t.row(c).empty(), !col_used[c]) << "column " << c;
      if (!col_used[c]) ++empty_cols;
    }
    for (std::size_t r = 0; r < shape.rows; ++r) {
      if (!row_used[r]) ++empty_rows;
    }
  }
  // The corpus really exercises empty rows and empty columns.
  EXPECT_GT(empty_rows, 0u);
  EXPECT_GT(empty_cols, 0u);
}

TEST(CsrMatrix, ToDenseMatchesAt) {
  const auto dense = example_matrix().to_dense();
  EXPECT_DOUBLE_EQ(dense[2][0], 4.0);
  EXPECT_DOUBLE_EQ(dense[1][1], 0.0);
}

TEST(CsrMatrix, RawConstructorValidatesRowPtr) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {{0, 1.0}}), std::invalid_argument);  // short row_ptr
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {{0, 1.0}}), std::invalid_argument);  // bad back()
  EXPECT_THROW(CsrMatrix(1, 1, {0, 1}, {{5, 1.0}}), std::invalid_argument);  // col range
}

}  // namespace
}  // namespace csrlmrm::linalg
