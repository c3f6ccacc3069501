// Depth truncation (eq. 4.3): the alternative truncation mode of section
// 4.4.2, layered onto the DFPG explorer.
#include <gtest/gtest.h>

#include "core/transform.hpp"
#include "models/wavelan.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm::numeric {
namespace {

/// The Example 3.6 workload: M[!idle v busy], target busy, start idle.
struct Workload {
  explicit Workload()
      : model(models::make_wavelan()),
        psi(model.labels().states_with("busy")),
        dead(5, false) {
    const auto idle = model.labels().states_with("idle");
    std::vector<bool> absorb(5, false);
    for (std::size_t s = 0; s < 5; ++s) {
      absorb[s] = !idle[s] || psi[s];
      dead[s] = !idle[s] && !psi[s];
    }
    engine.emplace(core::make_absorbing(model, absorb), psi, dead);
  }
  core::Mrm model;
  std::vector<bool> psi;
  std::vector<bool> dead;
  std::optional<UniformizationUntilEngine> engine;
};

TEST(DepthTruncation, CapsTheExploredDepth) {
  Workload workload;
  PathGeneratorOptions options;
  options.truncation_probability = 1e-18;
  options.depth_truncation = 10;
  const auto result = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, options);
  EXPECT_LE(result.max_depth, 10u);
}

TEST(DepthTruncation, ErrorBoundCoversTheDiscardedMass) {
  Workload workload;
  PathGeneratorOptions fine;
  fine.truncation_probability = 1e-18;
  const auto reference = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, fine);

  PathGeneratorOptions shallow = fine;
  shallow.depth_truncation = 6;
  const auto truncated = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, shallow);
  EXPECT_LE(truncated.probability, reference.probability + 1e-12);
  EXPECT_LE(reference.probability - truncated.probability, truncated.error_bound + 1e-12);
  EXPECT_GT(truncated.error_bound, reference.error_bound);
}

TEST(DepthTruncation, DeepEnoughBoundIsHarmless) {
  Workload workload;
  PathGeneratorOptions fine;
  fine.truncation_probability = 1e-15;
  const auto reference = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, fine);
  PathGeneratorOptions capped = fine;
  capped.depth_truncation = 4096;  // far beyond any surviving path
  const auto result = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, capped);
  EXPECT_DOUBLE_EQ(result.probability, reference.probability);
  EXPECT_DOUBLE_EQ(result.error_bound, reference.error_bound);
}

TEST(DepthTruncation, ErrorShrinksMonotonicallyWithDepth) {
  Workload workload;
  PathGeneratorOptions options;
  options.truncation_probability = 1e-18;
  double previous_error = 2.0;
  double previous_probability = -1.0;
  for (std::size_t depth : {2u, 4u, 8u, 16u, 32u}) {
    options.depth_truncation = depth;
    const auto result = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, options);
    EXPECT_LE(result.error_bound, previous_error + 1e-15) << "depth=" << depth;
    EXPECT_GE(result.probability, previous_probability - 1e-15);
    previous_error = result.error_bound;
    previous_probability = result.probability;
  }
}

TEST(DepthTruncation, DepthZeroDisablesTheBound) {
  Workload workload;
  PathGeneratorOptions with;
  with.truncation_probability = 1e-15;
  with.depth_truncation = 0;
  PathGeneratorOptions without;
  without.truncation_probability = 1e-15;
  const auto a = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, with);
  const auto b = workload.engine->compute(models::kWavelanIdle, 1.0, 2000.0, without);
  EXPECT_DOUBLE_EQ(a.probability, b.probability);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
}

}  // namespace
}  // namespace csrlmrm::numeric
