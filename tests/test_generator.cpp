// The streamed generator substrate (src/models/generator.hpp): BFS
// exploration into CSR, the three model families, and the spec parser.
//
// The load-bearing property is bitwise round-trip fidelity: exploring a
// generator and materializing it through save_mrm/load_mrm must produce the
// SAME model, entry for entry and bit for bit — that is what lets the
// million-state benchmarks trust the streamed path to mean exactly what the
// file-based path always meant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/approx.hpp"
#include "io/model_files.hpp"
#include "models/crowd_epidemic.hpp"
#include "models/generator.hpp"
#include "models/grid_network.hpp"
#include "models/virus_spread.hpp"

namespace csrlmrm {
namespace {

void expect_same_matrix(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.non_zeros(), b.non_zeros()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row_a = a.row(r);
    const auto row_b = b.row(r);
    ASSERT_EQ(row_a.size(), row_b.size()) << what << " row " << r;
    for (std::size_t j = 0; j < row_a.size(); ++j) {
      EXPECT_EQ(row_a[j].col, row_b[j].col) << what << " row " << r;
      EXPECT_TRUE(core::exactly_equal(row_a[j].value, row_b[j].value))
          << what << " row " << r << " col " << row_a[j].col;
    }
  }
}

void expect_same_model(const core::Mrm& a, const core::Mrm& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  expect_same_matrix(a.rates().matrix(), b.rates().matrix(), "rates");
  expect_same_matrix(a.impulse_rewards(), b.impulse_rewards(), "impulses");
  for (core::StateIndex s = 0; s < a.num_states(); ++s) {
    EXPECT_TRUE(core::exactly_equal(a.state_reward(s), b.state_reward(s))) << s;
    EXPECT_EQ(a.labels().labels_of(s), b.labels().labels_of(s)) << s;
  }
}

TEST(Generator, StreamedBuildBitwiseEqualsMaterializedBuild) {
  const char* specs[] = {"grid:width=5,height=4", "crowd:population=12",
                         "virus:hosts=5,infect=1.5"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const core::Mrm streamed = models::make_generated_mrm(spec);
    const std::string prefix =
        (std::filesystem::temp_directory_path() /
         ("csrlmrm_gen_" + std::to_string(::getpid() % 100000) + "_" +
          std::to_string(streamed.num_states())))
            .string();
    io::save_mrm(streamed, prefix);
    const core::Mrm loaded =
        io::load_mrm(prefix + ".tra", prefix + ".lab", prefix + ".rewr", prefix + ".rewi");
    expect_same_model(streamed, loaded);
    for (const char* ext : {".tra", ".lab", ".rewr", ".rewi"}) {
      std::filesystem::remove(prefix + ext);
    }
  }
}

TEST(Generator, ExplorationIsDeterministic) {
  const core::Mrm a = models::make_generated_mrm("crowd:population=15,contact=0.9");
  const core::Mrm b = models::make_generated_mrm("crowd:population=15,contact=0.9");
  expect_same_model(a, b);
}

TEST(Generator, GridFamilyInvariants) {
  const core::Mrm model = models::make_generated_mrm("grid:width=6,height=5");
  EXPECT_EQ(model.num_states(), 30u);
  const auto delivered = model.labels().states_with("delivered");
  std::size_t sinks = 0;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (delivered[s]) {
      ++sinks;
      EXPECT_TRUE(model.rates().is_absorbing(s)) << "sink must absorb";
    } else {
      EXPECT_FALSE(model.rates().is_absorbing(s));
      // Every hop carries the hop-energy impulse.
      EXPECT_EQ(model.impulse_rewards().row(s).size(), model.rates().transitions(s).size());
    }
  }
  EXPECT_EQ(sinks, 1u);
  EXPECT_TRUE(model.labels().has(0, "start"));
}

TEST(Generator, CrowdFamilyInvariants) {
  const core::Mrm model = models::make_generated_mrm("crowd:population=10");
  // Triangle s + i <= N, but only states reachable from (N-1, 1).
  const auto extinct = model.labels().states_with("extinct");
  bool any_extinct = false;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (extinct[s]) {
      any_extinct = true;
      EXPECT_TRUE(model.rates().is_absorbing(s)) << "extinct epidemic must absorb";
      EXPECT_TRUE(core::exactly_zero(model.state_reward(s)));
    }
  }
  EXPECT_TRUE(any_extinct);
}

TEST(Generator, VirusFamilyInvariants) {
  const core::Mrm model = models::make_generated_mrm("virus:hosts=4");
  EXPECT_EQ(model.num_states(), 16u);  // every infection mask is reachable
  const auto clean = model.labels().states_with("clean");
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (clean[s]) {
      EXPECT_TRUE(model.rates().is_absorbing(s));
    }
  }
}

TEST(Generator, MaxStatesGuardFires) {
  models::ExploreOptions options;
  options.max_states = 10;
  EXPECT_THROW(models::make_generated_mrm("grid:width=16,height=16", options),
               std::runtime_error);
}

TEST(Generator, RejectsUnknownFamilyWithAvailableList) {
  try {
    models::make_generated_mrm("mesh:width=4");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unknown generator family 'mesh'"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("crowd, grid, virus"), std::string::npos);
  }
}

TEST(Generator, RejectsUnknownAndMalformedParameters) {
  EXPECT_THROW(models::make_generated_mrm("grid:sidelength=4"), std::invalid_argument);
  EXPECT_THROW(models::make_generated_mrm("grid:width"), std::invalid_argument);
  EXPECT_THROW(models::make_generated_mrm("grid:width=abc"), std::invalid_argument);
  EXPECT_THROW(models::make_generated_mrm("crowd:population=-3"), std::invalid_argument);
  EXPECT_THROW(models::make_generated_mrm("virus:hosts=40"), std::invalid_argument);
  EXPECT_THROW(models::make_generated_mrm(""), std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm
