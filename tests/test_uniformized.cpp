// Uniformization (Definition 4.2), pinned to the worked Example 4.2 matrix:
// numeric::uniformized_transition_matrix is the one builder of
// P = I + Q/Lambda behind every series and both uniformization explorers.
#include <gtest/gtest.h>

#include "core/mrm.hpp"
#include "models/wavelan.hpp"
#include "numeric/transient.hpp"

namespace csrlmrm::core {
namespace {

/// P of `model` and its uniformization rate Lambda.
struct Uniformization {
  explicit Uniformization(const Mrm& model)
      : P(numeric::uniformized_transition_matrix(model.rates(), lambda)) {}
  double lambda = 0.0;
  linalg::CsrMatrix P;
};

TEST(Uniformized, LambdaIsMaxExitRate) {
  const Uniformization u(models::make_wavelan());
  EXPECT_DOUBLE_EQ(u.lambda, 15.0);  // Example 4.2
}

TEST(Uniformized, MatchesExample42Matrix) {
  const Uniformization u(models::make_wavelan());
  // Thesis Example 4.2 (0-based states off, sleep, idle, receive, transmit).
  EXPECT_NEAR(u.P.at(0, 0), 149.0 / 150.0, 1e-12);
  EXPECT_NEAR(u.P.at(0, 1), 1.0 / 150.0, 1e-12);
  EXPECT_NEAR(u.P.at(1, 0), 5.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(1, 1), 995.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(1, 2), 500.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(2, 1), 1200.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(2, 2), 75.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(2, 3), 150.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(2, 4), 75.0 / 1500.0, 1e-12);
  EXPECT_NEAR(u.P.at(3, 2), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(u.P.at(3, 3), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(u.P.at(4, 2), 1.0, 1e-12);
  EXPECT_NEAR(u.P.at(4, 4), 0.0, 1e-12);
}

TEST(Uniformized, RowsAreStochastic) {
  const Uniformization u(models::make_wavelan());
  for (StateIndex s = 0; s < u.P.rows(); ++s) {
    EXPECT_NEAR(u.P.row_sum(s), 1.0, 1e-12) << "state " << s;
  }
}

TEST(Uniformized, AbsorbingStateBecomesSelfLoop) {
  RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  const Uniformization u(Mrm(Ctmc(rates.build(), Labeling(2)), {0.0, 0.0}));
  EXPECT_DOUBLE_EQ(u.P.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(u.P.at(0, 1), 1.0);
}

TEST(Uniformized, AllAbsorbingModelGetsUnitLambda) {
  const Uniformization u(Mrm(Ctmc(RateMatrixBuilder(2).build(), Labeling(2)), {1.0, 2.0}));
  EXPECT_DOUBLE_EQ(u.lambda, 1.0);
  EXPECT_DOUBLE_EQ(u.P.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(u.P.at(1, 1), 1.0);
}

TEST(Uniformized, CtmcSelfLoopFoldsIntoSelfProbability) {
  RateMatrixBuilder rates(2);
  rates.add(0, 0, 1.0);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 4.0);
  const Uniformization u(Mrm(Ctmc(rates.build(), Labeling(2)), {0.0, 0.0}));
  EXPECT_DOUBLE_EQ(u.lambda, 4.0);
  // P(0,0) = 1 - E(0)/Lambda + R(0,0)/Lambda = 1 - 2/4 + 1/4 = 3/4.
  EXPECT_NEAR(u.P.at(0, 0), 0.75, 1e-12);
  EXPECT_NEAR(u.P.at(0, 1), 0.25, 1e-12);
}

}  // namespace
}  // namespace csrlmrm::core
