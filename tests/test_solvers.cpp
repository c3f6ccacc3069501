// Gauss-Seidel, Jacobi, and dense Gaussian elimination, cross-validated.
#include <gtest/gtest.h>

#include <stdexcept>

#include "linalg/csr_matrix.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "oracle/jacobi.hpp"

namespace csrlmrm::linalg {
namespace {

CsrMatrix diagonally_dominant() {
  // [ 4 -1  0 ]
  // [-1  4 -1 ]
  // [ 0 -1  4 ]
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  return builder.build();
}

TEST(GaussSeidel, SolvesDiagonallyDominantSystem) {
  const CsrMatrix A = diagonally_dominant();
  const std::vector<double> b{3.0, 2.0, 3.0};
  std::vector<double> x(3, 0.0);
  const auto result = gauss_seidel_solve(A, b, x);
  EXPECT_TRUE(result.converged);
  // Verify residual instead of pinning the solution.
  const auto Ax = A.multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(Ax[i], b[i], 1e-9);
}

TEST(GaussSeidel, RejectsZeroDiagonal) {
  CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  std::vector<double> x(2, 0.0);
  EXPECT_THROW(gauss_seidel_solve(builder.build(), {1.0, 1.0}, x), std::invalid_argument);
}

TEST(GaussSeidel, RejectsShapeMismatch) {
  std::vector<double> x(3, 0.0);
  EXPECT_THROW(gauss_seidel_solve(diagonally_dominant(), {1.0}, x), std::invalid_argument);
}

TEST(GaussSeidel, ReportsNonConvergenceViaIterationCap) {
  const CsrMatrix A = diagonally_dominant();
  std::vector<double> x(3, 100.0);
  IterativeOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-300;
  const auto result = gauss_seidel_solve(A, {1.0, 1.0, 1.0}, x, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Jacobi, AgreesWithGaussSeidel) {
  const CsrMatrix A = diagonally_dominant();
  const std::vector<double> b{1.0, -2.0, 0.5};
  std::vector<double> x_gs(3, 0.0);
  std::vector<double> x_j(3, 0.0);
  ASSERT_TRUE(gauss_seidel_solve(A, b, x_gs).converged);
  ASSERT_TRUE(jacobi_solve(A, b, x_j).converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x_gs[i], x_j[i], 1e-9);
}

TEST(DenseSolve, MatchesIterativeSolvers) {
  const CsrMatrix A = diagonally_dominant();
  const std::vector<double> b{1.0, -2.0, 0.5};
  std::vector<double> x_gs(3, 0.0);
  ASSERT_TRUE(gauss_seidel_solve(A, b, x_gs).converged);
  const auto x_dense = dense_solve(A, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x_gs[i], x_dense[i], 1e-9);
}

TEST(DenseSolve, HandlesPivoting) {
  // Leading zero forces a row swap.
  const std::vector<std::vector<double>> A{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = dense_solve(A, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(DenseSolve, RejectsSingularMatrix) {
  const std::vector<std::vector<double>> A{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(dense_solve(A, {1.0, 2.0}), std::domain_error);
}

TEST(SteadyStateGaussSeidel, TwoStateChainHasClosedForm) {
  // 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a) / (a+b).
  const double a = 2.0;
  const double b = 3.0;
  CsrBuilder q(2, 2);
  q.add(0, 0, -a);
  q.add(0, 1, a);
  q.add(1, 0, b);
  q.add(1, 1, -b);
  const auto pi = steady_state_gauss_seidel(q.build());
  EXPECT_NEAR(pi[0], b / (a + b), 1e-10);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-10);
}

TEST(SteadyStateGaussSeidel, SingleStateIsPointMass) {
  CsrBuilder q(1, 1);
  const auto pi = steady_state_gauss_seidel(q.build());
  ASSERT_EQ(pi.size(), 1u);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

TEST(SteadyStateGaussSeidel, RejectsAbsorbingStateInMultiStateChain) {
  CsrBuilder q(2, 2);
  q.add(0, 0, -1.0);
  q.add(0, 1, 1.0);
  // state 1 has no exit: not irreducible
  EXPECT_THROW(steady_state_gauss_seidel(q.build()), std::invalid_argument);
}

TEST(SteadyStateGaussSeidel, ThreeStateCycleBalancesFlows) {
  // 0 -> 1 -> 2 -> 0 with distinct rates; pi_i proportional to 1/rate_i.
  CsrBuilder q(3, 3);
  const double rates[3] = {1.0, 2.0, 4.0};
  for (int i = 0; i < 3; ++i) {
    q.add(i, (i + 1) % 3, rates[i]);
    q.add(i, i, -rates[i]);
  }
  const auto pi = steady_state_gauss_seidel(q.build());
  const double total = 1.0 / 1.0 + 1.0 / 2.0 + 1.0 / 4.0;
  EXPECT_NEAR(pi[0], (1.0 / 1.0) / total, 1e-10);
  EXPECT_NEAR(pi[1], (1.0 / 2.0) / total, 1e-10);
  EXPECT_NEAR(pi[2], (1.0 / 4.0) / total, 1e-10);
}

}  // namespace
}  // namespace csrlmrm::linalg
