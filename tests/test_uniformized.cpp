// Uniformization (Definition 4.2), pinned to the worked Example 4.2 matrix:
// numeric::uniformized_transition_matrix is the one builder of
// P = I + Q/Lambda behind every series and both uniformization explorers.
#include <gtest/gtest.h>

#include <string>

#include "core/mrm.hpp"
#include "models/generator.hpp"
#include "oracle/linalg_reference.hpp"
#include "oracle/random_mrm.hpp"
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
    EXPECT_NEAR(row_sum(u.P, s), 1.0, 1e-12) << "state " << s;
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

/// P as built before rows were emitted in column order: off-diagonals in
/// row order, the self loop appended last, and the builder's sort putting it
/// in place.
linalg::CsrMatrix appended_self_loop_matrix(const RateMatrix& rates, double lambda) {
  linalg::CsrBuilder builder(rates.num_states(), rates.num_states());
  for (StateIndex s = 0; s < rates.num_states(); ++s) {
    double off_diagonal = 0.0;
    for (const auto& e : rates.transitions(s)) {
      if (e.col == s) continue;
      builder.add(s, e.col, e.value / lambda);
      off_diagonal += e.value / lambda;
    }
    const double self_loop = 1.0 - off_diagonal;
    if (self_loop > 0.0) builder.add(s, s, self_loop);
  }
  return builder.build();
}

void expect_same_csr(const Mrm& model, const std::string& name) {
  const Uniformization u(model);
  const linalg::CsrMatrix expected = appended_self_loop_matrix(model.rates(), u.lambda);
  ASSERT_EQ(u.P.rows(), expected.rows()) << name;
  for (StateIndex s = 0; s < expected.rows(); ++s) {
    const auto got = u.P.row(s);
    const auto want = expected.row(s);
    ASSERT_EQ(got.size(), want.size()) << name << " row " << s;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].col, want[k].col) << name << " row " << s;
      EXPECT_EQ(got[k].value, want[k].value) << name << " row " << s;
    }
  }
}

TEST(Uniformized, ColumnOrderRowsEqualTheSortedAppendedSelfLoopBuild) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    models::RandomMrmConfig config;
    config.num_states = 4 + seed % 13;
    config.edge_probability = 0.2 + 0.02 * (seed % 20);
    expect_same_csr(models::make_random_mrm(seed, config), "random seed " + std::to_string(seed));
  }
  for (const char* spec : {"crowd:population=12", "crowd:population=100", "virus:hosts=5",
                           "virus:hosts=9"}) {
    expect_same_csr(models::make_generated_mrm(spec), spec);
  }
  RateMatrixBuilder rates(3);  // a CTMC self loop and an absorbing state
  rates.add(0, 0, 1.0);
  rates.add(0, 2, 1.0);
  rates.add(1, 0, 4.0);
  rates.add(1, 2, 0.5);
  expect_same_csr(Mrm(Ctmc(rates.build(), Labeling(3)), {0.0, 0.0, 0.0}), "self loop");
}

}  // namespace
}  // namespace csrlmrm::core
