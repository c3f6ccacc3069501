// RateMatrix: exit rates and the generator — checked against the
// WaveLAN example of the thesis (Example 2.4 / 4.2).
#include "core/rate_matrix.hpp"

#include <gtest/gtest.h>

#include "oracle/ctmc_measures.hpp"
#include "oracle/linalg_reference.hpp"

namespace csrlmrm::core {
namespace {

RateMatrix wavelan_rates() {
  // Example 4.2 rates (states 0..4 = off, sleep, idle, receive, transmit).
  RateMatrixBuilder builder(5);
  builder.add(0, 1, 0.1);
  builder.add(1, 0, 0.05);
  builder.add(1, 2, 5.0);
  builder.add(2, 1, 12.0);
  builder.add(2, 3, 1.5);
  builder.add(2, 4, 0.75);
  builder.add(3, 2, 10.0);
  builder.add(4, 2, 15.0);
  return builder.build();
}

TEST(RateMatrix, ExitRatesMatchExample24) {
  const RateMatrix rates = wavelan_rates();
  EXPECT_DOUBLE_EQ(rates.exit_rate(0), 0.1);
  EXPECT_DOUBLE_EQ(rates.exit_rate(1), 5.05);
  EXPECT_DOUBLE_EQ(rates.exit_rate(2), 14.25);
  EXPECT_DOUBLE_EQ(rates.exit_rate(3), 10.0);
  EXPECT_DOUBLE_EQ(rates.exit_rate(4), 15.0);
  EXPECT_DOUBLE_EQ(rates.max_exit_rate(), 15.0);
}

TEST(RateMatrix, AbsorbingStateDetected) {
  RateMatrixBuilder builder(2);
  builder.add(0, 1, 1.0);
  const RateMatrix rates = builder.build();
  EXPECT_FALSE(rates.is_absorbing(0));
  EXPECT_TRUE(rates.is_absorbing(1));
}

TEST(RateMatrix, GeneratorRowsSumToZero) {
  const auto generator = core::generator(wavelan_rates());
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(row_sum(generator, s), 0.0, 1e-12) << "state " << s;
  }
  EXPECT_DOUBLE_EQ(generator.at(2, 2), -14.25);
}

TEST(RateMatrix, SelfLoopsAreAllowedAndCounted) {
  // Definition 2.1 allows self-transitions.
  RateMatrixBuilder builder(1);
  builder.add(0, 0, 3.0);
  const RateMatrix rates = builder.build();
  EXPECT_DOUBLE_EQ(rates.exit_rate(0), 3.0);
}

TEST(RateMatrixBuilder, RejectsNegativeRates) {
  RateMatrixBuilder builder(2);
  EXPECT_THROW(builder.add(0, 1, -0.5), std::invalid_argument);
}

TEST(RateMatrixBuilder, AccumulatesParallelTransitions) {
  RateMatrixBuilder builder(2);
  builder.add(0, 1, 1.0);
  builder.add(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(builder.build().rate(0, 1), 3.0);
}

TEST(RateMatrix, RejectsNonSquareMatrix) {
  linalg::CsrBuilder builder(2, 3);
  EXPECT_THROW(RateMatrix(builder.build()), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::core
