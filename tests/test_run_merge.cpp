// The class-DP fold's sorting routines (numeric/run_merge.hpp) against
// std::stable_sort, and the checker's P2 bounds pinned bitwise: the fold's
// order is the stable sort's by construction, so every sum it makes — and
// every probability and error bound built on them — must keep the values
// recorded here at every thread count.
#include "numeric/run_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "checker/sat.hpp"
#include "logic/parser.hpp"
#include "oracle/cellphone.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::numeric {
namespace {

/// Sort keys with shapes that exercise every branch of the run detection.
std::vector<int> make_keys(std::mt19937& rng, std::size_t n, int shape) {
  std::vector<int> keys(n);
  std::uniform_int_distribution<int> few(0, 3);     // heavy ties
  std::uniform_int_distribution<int> many(0, 49);
  switch (shape) {
    case 0:
      for (int& k : keys) k = few(rng);
      break;
    case 1:  // presorted with ties
      for (int& k : keys) k = few(rng);
      std::sort(keys.begin(), keys.end());
      break;
    case 2:  // strictly descending
      std::iota(keys.rbegin(), keys.rend(), 0);
      break;
    case 3:  // descending with ties: descending runs must stop at each tie
      for (int& k : keys) k = few(rng);
      std::sort(keys.rbegin(), keys.rend());
      break;
    default:  // concatenated ascending and descending runs of random length
      for (std::size_t i = 0; i < n;) {
        const std::size_t len = std::min<std::size_t>(n - i, 1 + rng() % 12);
        for (std::size_t j = 0; j < len; ++j) keys[i + j] = many(rng);
        if (rng() % 2) {
          std::sort(keys.begin() + static_cast<std::ptrdiff_t>(i),
                    keys.begin() + static_cast<std::ptrdiff_t>(i + len));
        } else {
          std::sort(keys.rbegin() + static_cast<std::ptrdiff_t>(n - i - len),
                    keys.rbegin() + static_cast<std::ptrdiff_t>(n - i));
        }
        i += len;
      }
  }
  return keys;
}

TEST(ClassExplorerRunMerge, MergeRunsReturnsTheStableSortPermutation) {
  std::mt19937 rng(20261019);
  PageBuffer<std::uint32_t> scratch;
  PageBuffer<std::size_t> runs;
  for (std::size_t n : {0, 1, 2, 3, 7, 64, 500, 3000}) {
    for (int shape = 0; shape < 5; ++shape) {
      const std::vector<int> keys = make_keys(rng, n, shape);
      const auto less = [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; };
      std::vector<std::uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      std::stable_sort(expected.begin(), expected.end(), less);
      std::vector<std::uint32_t> got(n);
      std::iota(got.begin(), got.end(), 0u);
      merge_runs(got.data(), got.data() + n, scratch, runs, less);
      EXPECT_EQ(got, expected) << "n=" << n << " shape=" << shape;
    }
  }
}

TEST(ClassExplorerRunMerge, BucketSorterReturnsTheStableSortPermutation) {
  // One sorter across calls whose key ranges grow and shrink: its key ->
  // bucket table must be clean again after every call.
  std::mt19937 rng(7);
  BucketSorter sorter;
  PageBuffer<std::uint32_t> order;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t key_bound = 1 + rng() % 40;
    const std::size_t n = trial % 10 == 0 ? trial % 3 : rng() % 2000;
    // Most buckets empty, some singletons, a few large.
    std::vector<std::size_t> keys(n);
    const std::size_t hot = 1 + rng() % 4;
    for (std::size_t& k : keys) k = (rng() % 8 == 0 ? rng() : rng() % hot) % key_bound;
    const std::vector<int> within = make_keys(rng, n, trial % 5);
    const auto less = [&](std::uint32_t a, std::uint32_t b) { return within[a] < within[b]; };

    std::vector<std::uint32_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(), [&](std::uint32_t a, std::uint32_t b) {
      return keys[a] != keys[b] ? keys[a] < keys[b] : less(a, b);
    });
    sorter.sort(keys.data(), n, key_bound, order, less);
    ASSERT_EQ(order.size(), n);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), order.begin()))
        << "trial=" << trial << " n=" << n << " key_bound=" << key_bound;
  }
}

/// One P2 query with its per-state (probability, error bound): `values`
/// as the engine computes them now, pinned bitwise, and `previous` as
/// recorded before absorbed Psi-classes ran as closed-form tails (with the
/// comparison-sort fold the run-merge one replaced). The tails sum the
/// same terms in another order and compute Omega by its forward flow, so
/// they keep `previous` to within 1e-12 relative.
struct PinnedQuery {
  const char* model;
  const char* formula;
  std::vector<std::pair<double, double>> values;
  std::vector<std::pair<double, double>> previous;
};

/// |a - b| <= 1e-12 * |b|.
bool within_1e12_relative(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fabs(b); }

const std::vector<PinnedQuery>& pinned_queries() {
  static const std::vector<PinnedQuery> queries = {
    {"cellphone", "P(>0.5)[(Call_Idle || Doze) U[0,24][0,400] Call_Initiated]",
     {{0x1.7cf264c79bf3bp-2, 0x1.64975b8558aacp-11},
      {0x1.de4ce54885eeep-2, 0x1.2c3ff023a6398p-11},
      {0x1.30ab63a8f2219p-1, 0x1.f78d1ba2526ffp-12},
      {0x1p+0, 0x0p+0},
      {0x0p+0, 0x0p+0}},
     {{0x1.7cf264c79bf38p-2, 0x1.64975b8558aacp-11},
      {0x1.de4ce54885ef3p-2, 0x1.2c3ff023a6398p-11},
      {0x1.30ab63a8f221ap-1, 0x1.f78d1ba2526ffp-12},
      {0x1p+0, 0x0p+0},
      {0x0p+0, 0x0p+0}}},
    {"wavelan", "P(>0.3)[idle U[0,1][0,100] busy]",
     {{0x0p+0, 0x0p+0},
      {0x0p+0, 0x0p+0},
      {0x1.aa3a087dca8d4p-4, 0x1.6f82b3ad79436p-26},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}},
     {{0x0p+0, 0x0p+0},
      {0x0p+0, 0x0p+0},
      {0x1.aa3a087dca8d4p-4, 0x1.6f82b3ad79436p-26},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}}},
    {"tmr", "P(>0.1)[Sup U[0,100][0,3000] failed]",
     {{0x1.4e2b3d661f1f1p-7, 0x1.80712fd611f47p-18},
      {0x1.25fff33cac7c4p-6, 0x1.2d51d42154cc6p-18},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}},
     {{0x1.4e2b3d661f1fp-7, 0x1.80712fd611f47p-18},
      {0x1.25fff33cac7bdp-6, 0x1.2d51d42154cc6p-18},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}}},
    {"tmr", "P(>0.1)[Sup U[0,300][0,3000] failed]",
     {{0x1.cd27211715a95p-6, 0x1.370cd1ae79117p-9},
      {0x1.261e941762e02p-5, 0x1.1e360dbc9523ap-9},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}},
     {{0x1.cd27211715a95p-6, 0x1.370cd1ae79117p-9},
      {0x1.261e941762e09p-5, 0x1.1e360dbc9523ap-9},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0},
      {0x1p+0, 0x0p+0}}},
    {"nmr_variable", "P(>0.1)[TT U[0,20][0,400] allUp]",
     {{0x1p+0, 0x0p+0},
      {0x1.13986f68d1b3cp-1, 0x1.a80cb3ddcb49dp-20},
      {0x1.6e7eb49312accp-3, 0x1.eb59919ec28f3p-19},
      {0x1.52317e76b4841p-5, 0x1.787729fffe43cp-18},
      {0x1.e0c441d668f43p-8, 0x1.d6355ac240b0fp-18},
      {0x1.51a533b64c15cp-10, 0x1.fe7bcaf670a9ap-18},
      {0x1.d81a6db4a82d8p-12, 0x1.eec8d8126f8f1p-18},
      {0x1.6d3996fe80f7p-12, 0x1.e88cc8a4c717ap-18},
      {0x1.596e4e5685537p-12, 0x1.fcf6aedcdf86p-18},
      {0x1.4e3f01d4fce24p-12, 0x1.e780a6f5ef64p-18},
      {0x1.444b9f298ed9bp-12, 0x1.ad137d66ea3c2p-18},
      {0x1.3af635d3e460fp-12, 0x1.52ab0d49a869cp-18},
      {0x1.e6f69ba21ae54p-2, 0x1.a824fc8p-28}},
     {{0x1p+0, 0x0p+0},
      {0x1.13986f68d1b3dp-1, 0x1.a80cb3ddcb49fp-20},
      {0x1.6e7eb49312accp-3, 0x1.eb59919ec28efp-19},
      {0x1.52317e76b4841p-5, 0x1.787729fffe43dp-18},
      {0x1.e0c441d668f42p-8, 0x1.d6355ac240b0ep-18},
      {0x1.51a533b64c15fp-10, 0x1.fe7bcaf670a98p-18},
      {0x1.d81a6db4a82d9p-12, 0x1.eec8d8126f8efp-18},
      {0x1.6d3996fe80f7p-12, 0x1.e88cc8a4c7177p-18},
      {0x1.596e4e5685538p-12, 0x1.fcf6aedcdf86p-18},
      {0x1.4e3f01d4fce21p-12, 0x1.e780a6f5ef64p-18},
      {0x1.444b9f298ed9dp-12, 0x1.ad137d66ea3c7p-18},
      {0x1.3af635d3e460fp-12, 0x1.52ab0d49a86ap-18},
      {0x1.e6f69ba21ae54p-2, 0x1.a824fc8p-28}}},
    {"nmr_variable", "P(>0.1)[TT U[0,40][0,800] allUp]",
     {{0x1p+0, 0x0p+0},
      {0x1.8db10562b8a14p-1, 0x1.6bd514a4759b7p-18},
      {0x1.c684037410db2p-2, 0x1.b14212bd6c257p-17},
      {0x1.84bbfc725241ep-3, 0x1.69fa2c5e1b242p-16},
      {0x1.03547e776a8d3p-4, 0x1.faed69049ea16p-16},
      {0x1.1f1e1cbcb24aap-6, 0x1.2f084a1b7afabp-15},
      {0x1.338b7f75804f7p-8, 0x1.5017827aff2ap-15},
      {0x1.d1c354d938a73p-10, 0x1.5bce2fa9a9ec1p-15},
      {0x1.3bcba6b6457c8p-10, 0x1.50ab26d41e837p-15},
      {0x1.1cbde28938e8bp-10, 0x1.3ea36682b9cf2p-15},
      {0x1.115440359d6f2p-10, 0x1.1c54fb440c11cp-15},
      {0x1.090d4631a24cfp-10, 0x1.d611d01b71713p-16},
      {0x1.73a1aeb6cb513p-1, 0x1.a3c285p-28}},
     {{0x1p+0, 0x0p+0},
      {0x1.8db10562b8a0fp-1, 0x1.6bd514a4759b6p-18},
      {0x1.c684037410db2p-2, 0x1.b14212bd6c254p-17},
      {0x1.84bbfc7252425p-3, 0x1.69fa2c5e1b241p-16},
      {0x1.03547e776a8dp-4, 0x1.faed69049ea14p-16},
      {0x1.1f1e1cbcb24a7p-6, 0x1.2f084a1b7afabp-15},
      {0x1.338b7f75804f2p-8, 0x1.5017827aff29ep-15},
      {0x1.d1c354d938a74p-10, 0x1.5bce2fa9a9ebep-15},
      {0x1.3bcba6b6457cbp-10, 0x1.50ab26d41e836p-15},
      {0x1.1cbde28938e8cp-10, 0x1.3ea36682b9cefp-15},
      {0x1.115440359d6fp-10, 0x1.1c54fb440c11ap-15},
      {0x1.090d4631a24ccp-10, 0x1.d611d01b71717p-16},
      {0x1.73a1aeb6cb511p-1, 0x1.a3c285p-28}}},
    {"nmr_constant", "P(>0.1)[TT U[0,50][0,1000] allUp]",
     {{0x1p+0, 0x0p+0},
      {0x1.b95f4f210e7dap-1, 0x1.231b80c0eb612p-19},
      {0x1.28d0ad8c57bb5p-1, 0x1.ab24b756baa91p-18},
      {0x1.334c6a9ba2c92p-2, 0x1.90d5abd96f573p-17},
      {0x1.f58c0f844a7fap-4, 0x1.5888731cf2077p-16},
      {0x1.4fdd6f8b66aacp-5, 0x1.e98663df11f52p-16},
      {0x1.902f769aafa69p-7, 0x1.31b8603af63fdp-15},
      {0x1.06feed70eb6ep-8, 0x1.86971ecaf8517p-15},
      {0x1.0ce34b081f04p-9, 0x1.a97855d67002bp-15},
      {0x1.a996c2608c92fp-10, 0x1.d7012e461ac0fp-15},
      {0x1.8c7580ca3d9afp-10, 0x1.d9a7534980a16p-15},
      {0x1.7e7469baf2627p-10, 0x1.ae47e5166b0d1p-15},
      {0x1.9a82ec859d2afp-1, 0x1.eadecbp-29}},
     {{0x1p+0, 0x0p+0},
      {0x1.b95f4f210e7d9p-1, 0x1.231b80c0eb613p-19},
      {0x1.28d0ad8c57bbbp-1, 0x1.ab24b756baa95p-18},
      {0x1.334c6a9ba2c9fp-2, 0x1.90d5abd96f576p-17},
      {0x1.f58c0f844a7fap-4, 0x1.5888731cf207ap-16},
      {0x1.4fdd6f8b66a9ap-5, 0x1.e98663df11f52p-16},
      {0x1.902f769aafa62p-7, 0x1.31b8603af63fbp-15},
      {0x1.06feed70eb6e5p-8, 0x1.86971ecaf8516p-15},
      {0x1.0ce34b081f039p-9, 0x1.a97855d670028p-15},
      {0x1.a996c2608c936p-10, 0x1.d7012e461ac14p-15},
      {0x1.8c7580ca3d9b7p-10, 0x1.d9a7534980a19p-15},
      {0x1.7e7469baf261fp-10, 0x1.ae47e5166b0d4p-15},
      {0x1.9a82ec859d2aep-1, 0x1.eadecbp-29}}},
  };
  return queries;
}

core::Mrm pinned_model(const std::string& name) {
  if (name == "cellphone") return models::make_cellphone();
  if (name == "wavelan") return models::make_wavelan();
  if (name == "tmr") return models::make_tmr();
  return models::make_tmr(models::chapter5_nmr_config(name == "nmr_variable"));
}

TEST(ClassDpBitPin, P2BoundsMatchRecordedHexFloatsAtEveryThreadCount) {
  // Cellphone, WaveLAN, TMR and the 11-module NMR level sweep; the NMR rows
  // at t = 40 and t = 50 also run the depth-first hand-off and its final
  // harvest fold.
  for (const PinnedQuery& query : pinned_queries()) {
    const core::Mrm model = pinned_model(query.model);
    const logic::FormulaPtr formula = logic::parse_formula(query.formula);
    for (unsigned threads : {1u, 2u, 8u}) {
      checker::CheckerOptions options;
      options.threads = threads;
      checker::ModelChecker checker(model, options);
      const auto values = checker.path_probabilities(formula);
      ASSERT_EQ(values.size(), query.values.size()) << query.model;
      ASSERT_EQ(values.size(), query.previous.size()) << query.model;
      for (std::size_t s = 0; s < values.size(); ++s) {
        EXPECT_EQ(values[s].probability, query.values[s].first)
            << query.model << " " << query.formula << " state " << s << " threads " << threads;
        EXPECT_EQ(values[s].error_bound, query.values[s].second)
            << query.model << " " << query.formula << " state " << s << " threads " << threads;
        EXPECT_TRUE(within_1e12_relative(values[s].probability, query.previous[s].first))
            << query.model << " " << query.formula << " state " << s << " threads " << threads;
        EXPECT_TRUE(within_1e12_relative(values[s].error_bound, query.previous[s].second))
            << query.model << " " << query.formula << " state " << s << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace csrlmrm::numeric
