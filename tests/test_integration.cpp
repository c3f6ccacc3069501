// End-to-end integration: the chapter-5 experimental pipeline in miniature.
#include <gtest/gtest.h>

#include "checker/sat.hpp"
#include "io/model_files.hpp"
#include "logic/parser.hpp"
#include "oracle/cellphone.hpp"
#include "models/tmr.hpp"

#include <filesystem>

namespace csrlmrm {
namespace {

TEST(Integration, TmrTable53FirstRowReproduces) {
  // P(>0.1)[Sup U[0,50][0,3000] failed] from the fully-operational state
  // with w = 1e-11: the thesis reports P = 0.005087386... and an error bound
  // of order 1e-9 (Table 5.3, row t=50). The probability is rate-driven
  // (the reward bound is slack at t=50), so our reproduction matches it
  // closely even though the thesis's reward magnitudes are unpublished.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-11;
  checker::ModelChecker checker(model, options);
  const auto values = checker.path_probabilities(
      logic::parse_formula("P(>0.1)[Sup U[0,50][0,3000] failed]"));
  EXPECT_NEAR(values[0].probability, 0.005087386344177422, 1e-6);
  EXPECT_LT(values[0].error_bound, 1e-7);
  EXPECT_GT(values[0].error_bound, 0.0);
  // And the satisfaction verdict: 0.005 < 0.1, so state 0 does not satisfy.
  EXPECT_FALSE(checker.satisfies(
      0, logic::parse_formula("P(>0.1)[Sup U[0,50][0,3000] failed]")));
}

TEST(Integration, TmrTable58DiscretizationReproducesExactly) {
  // With the recovered reward structure (rho(k) = 8 + 2k, repair impulses
  // 2.5/5) the discretization engine reproduces the published Table 5.8
  // values to near machine precision — strong evidence the calibration
  // recovered the thesis's actual (unpublished) reward files.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::CheckerOptions options;
  options.until_method = checker::UntilMethod::kDiscretization;
  options.discretization.step = 0.25;
  checker::ModelChecker checker(model, options);
  const double paper[] = {0.005061779415718182, 0.010175568967901463, 0.015267158582408371,
                          0.020332872743413364};
  for (int row = 0; row < 4; ++row) {
    const double t = 50.0 * (row + 1);
    const auto values = checker.path_probabilities(logic::parse_formula(
        "P(>0.1)[Sup U[0," + std::to_string(t) + "][0,3000] failed]"));
    EXPECT_NEAR(values[0].probability, paper[row], 1e-13) << "t=" << t;
  }
}

TEST(Integration, NmrTable55RowsWithinTruncationError) {
  // The 11-module calibration (rho(k) = 24 + k, impulses 1/2) matches every
  // published Table 5.5 row within the experiment's own truncation error.
  const core::Mrm model = models::make_tmr(models::chapter5_nmr_config());
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-8;
  checker::ModelChecker checker(model, options);
  const auto values =
      checker.path_probabilities(logic::parse_formula("P(>0.1)[TT U[0,100][0,2000] allUp]"));
  const double paper[] = {0.00482952588914756, 0.0068486521925764, 0.0131488893307554,
                          0.0307864803541378,  0.0735906999244802, 0.161653274832831,
                          0.311639369763902,   0.516966415983422,  0.733673548795558,
                          0.899015328912742,   0.980329681725223};
  for (int working = 0; working <= 10; ++working) {
    const auto state = models::tmr_state_with_failed(11 - working);
    EXPECT_NEAR(values[state].probability, paper[working],
                values[state].error_bound + 1e-6)
        << "n=" << working;
  }
}

TEST(Integration, TmrRewardBoundCreatesThePlateau) {
  // The signature shape of Tables 5.3/5.4: the probability stops growing
  // once rho(allUp) * t exceeds the reward bound r = 3000 (around t ~ 430
  // with our calibration).
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-13;
  checker::ModelChecker checker(model, options);

  const auto at = [&](double t) {
    const auto values = checker.path_probabilities(logic::parse_formula(
        "P(>0.1)[Sup U[0," + std::to_string(t) + "][0,3000] failed]"));
    return values[0].probability;
  };
  const double p300 = at(300.0);
  const double p420 = at(420.0);
  const double p500 = at(500.0);
  EXPECT_GT(p420, p300 * 1.2);          // still growing roughly linearly
  EXPECT_LT(p500 - p420, p420 - p300);  // plateau: growth collapses
}

TEST(Integration, TmrUnboundedRewardKeepsGrowing) {
  // Control experiment: without the reward bound there is no plateau.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::ModelChecker checker(model);
  const auto at = [&](double t) {
    const auto values = checker.path_probabilities(logic::parse_formula(
        "P(>0.1)[Sup U[0," + std::to_string(t) + "] failed]"));
    return values[0].probability;
  };
  EXPECT_GT(at(500.0) - at(420.0), 0.5 * (at(420.0) - at(340.0)));
}

TEST(Integration, ElevenModuleCurveIsMonotoneInWorkingModules) {
  // Figure 5.4's S-curve: P(tt U^[0,100]_[0,2000] allUp) rises with the
  // number of initially working modules.
  const core::Mrm model = models::make_tmr(models::chapter5_nmr_config());
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-8;
  checker::ModelChecker checker(model, options);
  const auto values =
      checker.path_probabilities(logic::parse_formula("P(>0.1)[TT U[0,100][0,2000] allUp]"));
  double previous = -1.0;
  for (int working = 0; working <= 10; ++working) {
    const auto state = models::tmr_state_with_failed(11 - working);
    EXPECT_GE(values[state].probability, previous - 1e-9) << "working=" << working;
    previous = values[state].probability;
  }
  EXPECT_LT(values[models::tmr_state_with_failed(11)].probability, 0.05);  // n=0
  EXPECT_GT(values[models::tmr_state_with_failed(1)].probability, 0.9);    // n=10
}

TEST(Integration, VariableFailureRatesLowerTheCurve) {
  // Figure 5.5 vs 5.4: with failure rates scaling in the number of working
  // modules, reaching allUp is (weakly) less likely from every start.
  const models::TmrConfig constant_config = models::chapter5_nmr_config();
  const models::TmrConfig variable_config = models::chapter5_nmr_config(true);

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-8;
  const core::Mrm constant_model = models::make_tmr(constant_config);
  const core::Mrm variable_model = models::make_tmr(variable_config);
  checker::ModelChecker constant_checker(constant_model, options);
  checker::ModelChecker variable_checker(variable_model, options);
  const auto formula = logic::parse_formula("P(>0.1)[TT U[0,100][0,2000] allUp]");
  const auto constant_values = constant_checker.path_probabilities(formula);
  const auto variable_values = variable_checker.path_probabilities(formula);
  for (int working = 1; working <= 10; ++working) {
    const auto state = models::tmr_state_with_failed(11 - working);
    EXPECT_LE(variable_values[state].probability,
              constant_values[state].probability + 0.02)
        << "working=" << working;
  }
}

TEST(Integration, CellphoneUniformizationAndDiscretizationAgree) {
  // The thesis's own correctness argument (5.3.3/ch. 6): the two numerical
  // methods converge to the same value. Table 5.1 workload.
  const core::Mrm model = models::make_cellphone();
  const auto formula =
      logic::parse_formula("P(>0.5)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]");

  checker::CheckerOptions uniformization;
  uniformization.uniformization.truncation_probability = 1e-13;
  checker::ModelChecker u_checker(model, uniformization);
  const double by_uniformization =
      u_checker.path_probabilities(formula)[models::kCellphoneStart].probability;

  checker::CheckerOptions discretization;
  discretization.until_method = checker::UntilMethod::kDiscretization;
  discretization.discretization.step = 1.0 / 64.0;
  checker::ModelChecker d_checker(model, discretization);
  const double by_discretization =
      d_checker.path_probabilities(formula)[models::kCellphoneStart].probability;

  EXPECT_NEAR(by_uniformization, by_discretization, 5e-3);
  EXPECT_GT(by_uniformization, 0.2);
  EXPECT_LT(by_uniformization, 0.9);
}

TEST(Integration, TmrModelSurvivesFileRoundTrip) {
  // Save the TMR model to the appendix formats, reload, re-check the
  // Table 5.3 first row: identical results.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto dir = std::filesystem::temp_directory_path() / "csrlmrm_integration";
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "tmr").string();
  io::save_mrm(model, prefix);
  const core::Mrm loaded =
      io::load_mrm(prefix + ".tra", prefix + ".lab", prefix + ".rewr", prefix + ".rewi");

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-11;
  checker::ModelChecker original_checker(model, options);
  checker::ModelChecker loaded_checker(loaded, options);
  const auto formula = logic::parse_formula("P(>0.1)[Sup U[0,50][0,3000] failed]");
  EXPECT_DOUBLE_EQ(original_checker.path_probabilities(formula)[0].probability,
                   loaded_checker.path_probabilities(formula)[0].probability);
  std::filesystem::remove_all(dir);
}

TEST(Integration, SteadyStateOfTmrFavorsOperationalStates) {
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  checker::ModelChecker checker(model);
  // With repair much faster than failure the system is almost always Sup.
  EXPECT_TRUE(checker.satisfies(0, logic::parse_formula("S(>0.99) Sup")));
  EXPECT_FALSE(checker.satisfies(0, logic::parse_formula("S(>0.5) failed")));
}

}  // namespace
}  // namespace csrlmrm
