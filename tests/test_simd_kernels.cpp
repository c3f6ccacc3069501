// Bitwise cross-validation of the portable SIMD layer (core/simd.hpp)
// against hand-written scalar spellings — the contract the header promises:
// every operation is elementwise with no reassociation and no fused
// multiply-add contraction, so the vectorized loop and the plain scalar
// loop agree bit for bit on every element, including the remainder tail.
//
// Inputs are harvested from 60 seeded random impulse-reward MRMs (exit
// rates, transition rates, embedded-jump probabilities, state and impulse
// rewards) so the magnitudes exercised are exactly what the Omega/Poisson/
// transient kernels feed these helpers, with signed zeros, denormals and
// huge values appended on top. Comparison is by memcmp of the double's bit
// pattern, not ==, so a -0.0 vs +0.0 or NaN-payload drift would fail.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/simd.hpp"
#include "oracle/random_mrm.hpp"

namespace csrlmrm {
namespace {

/// The scalar spellings the kernels must match exactly. Kept textually
/// identical to the remainder loops in core/simd.hpp on purpose: the test
/// pins the vector body to them, element for element.
void axpy_scalar(double* dst, const double* src, std::size_t count, double a) {
  for (std::size_t i = 0; i < count; ++i) dst[i] += a * src[i];
}

void scale_scalar(double* dst, const double* src, std::size_t count, double a) {
  for (std::size_t i = 0; i < count; ++i) dst[i] = a * src[i];
}

void fill_affine_scalar(double* dst, std::size_t count, std::size_t first, double scale,
                        double offset) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(first + i) * scale + offset;
  }
}

void expect_bitwise_equal(const std::vector<double>& simd, const std::vector<double>& scalar,
                          const char* kernel, std::size_t count, double a) {
  ASSERT_EQ(simd.size(), scalar.size());
  for (std::size_t i = 0; i < simd.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&simd[i], &scalar[i], sizeof(double)))
        << kernel << " diverges at i=" << i << " (count=" << count << ", a=" << a
        << "): " << simd[i] << " vs " << scalar[i];
  }
}

/// Every double an engine would feed the kernels for this model: exit rates,
/// raw transition rates, embedded-DTMC jump probabilities, state rewards and
/// impulse rewards — plus the edge values vectorization is most likely to
/// mishandle (signed zero, denormals, values whose product overflows).
std::vector<double> harvest(const core::Mrm& model) {
  std::vector<double> data;
  const core::RateMatrix& rates = model.rates();
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    data.push_back(rates.exit_rate(s));
    data.push_back(model.state_reward(s));
    for (const auto& entry : rates.matrix().row(s)) {
      data.push_back(entry.value);
      if (rates.exit_rate(s) > 0.0) data.push_back(entry.value / rates.exit_rate(s));
    }
    for (const auto& entry : model.impulse_rewards().row(s)) {
      data.push_back(entry.value);
    }
  }
  data.push_back(0.0);
  data.push_back(-0.0);
  data.push_back(std::numeric_limits<double>::denorm_min());
  data.push_back(-std::numeric_limits<double>::denorm_min());
  data.push_back(std::numeric_limits<double>::min());
  data.push_back(1e308);
  data.push_back(-1e308);
  return data;
}

core::Mrm make_model(std::uint32_t seed) {
  models::RandomMrmConfig config;
  config.num_states = 5 + seed % 8;
  return models::make_random_mrm(seed, config);
}

/// Counts straddling every lane boundary of the 4-wide vector body: empty,
/// pure-remainder (< kLanes), exactly one vector, vector + partial tail.
std::vector<std::size_t> interesting_counts(std::size_t max) {
  std::vector<std::size_t> counts;
  for (const std::size_t c : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
                              std::size_t{13}, max}) {
    if (c <= max) counts.push_back(c);
  }
  return counts;
}

class SimdKernels : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimdKernels, AxpyMatchesTheScalarSpellingBitwise) {
  const std::uint32_t seed = GetParam();
  const std::vector<double> data = harvest(make_model(seed));
  ASSERT_GE(data.size(), 8u);
  const double scales[] = {data[seed % data.size()], -data[(seed + 3) % data.size()],
                           0.0, -0.0, 1e308};
  for (const double a : scales) {
    for (const std::size_t count : interesting_counts(data.size())) {
      // dst starts from a rotated copy of the harvest so the accumulate path
      // (+=) mixes two unrelated model-derived values per element.
      std::vector<double> dst_simd(count), dst_scalar(count);
      for (std::size_t i = 0; i < count; ++i) {
        dst_simd[i] = dst_scalar[i] = data[(i + 5) % data.size()];
      }
      core::simd::axpy(dst_simd.data(), data.data(), count, a);
      axpy_scalar(dst_scalar.data(), data.data(), count, a);
      expect_bitwise_equal(dst_simd, dst_scalar, "axpy", count, a);
    }
  }
}

TEST_P(SimdKernels, ScaleMatchesTheScalarSpellingBitwiseIncludingAliased) {
  const std::uint32_t seed = GetParam();
  const std::vector<double> data = harvest(make_model(seed));
  const double scales[] = {data[(seed + 1) % data.size()], -0.5, 0.0, 1e-320};
  for (const double a : scales) {
    for (const std::size_t count : interesting_counts(data.size())) {
      std::vector<double> dst_simd(count), dst_scalar(count);
      core::simd::scale(dst_simd.data(), data.data(), count, a);
      scale_scalar(dst_scalar.data(), data.data(), count, a);
      expect_bitwise_equal(dst_simd, dst_scalar, "scale", count, a);

      // The documented dst == src aliasing case (in-place rescale).
      std::vector<double> in_place_simd(data.begin(), data.begin() + count);
      std::vector<double> in_place_scalar = in_place_simd;
      core::simd::scale(in_place_simd.data(), in_place_simd.data(), count, a);
      scale_scalar(in_place_scalar.data(), in_place_scalar.data(), count, a);
      expect_bitwise_equal(in_place_simd, in_place_scalar, "scale[aliased]", count, a);
    }
  }
}

TEST_P(SimdKernels, FillAffineMatchesTheScalarSpellingBitwise) {
  const std::uint32_t seed = GetParam();
  const std::vector<double> data = harvest(make_model(seed));
  // The Poisson table use: first is a Fox-Glynn left truncation point,
  // scale a log(lambda)-like value, offset a negative log-normalizer.
  const std::size_t firsts[] = {0, 1, seed % 97, 12345};
  const double scale = data[(seed + 2) % data.size()];
  const double offset = -data[(seed + 7) % data.size()];
  for (const std::size_t first : firsts) {
    for (const std::size_t count : interesting_counts(64)) {
      std::vector<double> dst_simd(count, -1.0), dst_scalar(count, -2.0);
      core::simd::fill_affine(dst_simd.data(), count, first, scale, offset);
      fill_affine_scalar(dst_scalar.data(), count, first, scale, offset);
      expect_bitwise_equal(dst_simd, dst_scalar, "fill_affine", count, scale);
    }
  }
}

TEST_P(SimdKernels, DoubleVecElementwiseOpsMatchScalarArithmeticPerLane) {
  const std::uint32_t seed = GetParam();
  const std::vector<double> data = harvest(make_model(seed));
  constexpr std::size_t lanes = core::simd::DoubleVec::kLanes;
  ASSERT_GE(data.size(), 2 * lanes);
  const double* a = data.data() + (seed % (data.size() - 2 * lanes));
  const double* b = a + lanes;

  const auto va = core::simd::DoubleVec::load(a);
  const auto vb = core::simd::DoubleVec::load(b);
  double sum[lanes], diff[lanes], prod[lanes], quot[lanes];
  (va + vb).store(sum);
  (va - vb).store(diff);
  (va * vb).store(prod);
  (va / vb).store(quot);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const double s = a[lane] + b[lane];
    const double d = a[lane] - b[lane];
    const double p = a[lane] * b[lane];
    const double q = a[lane] / b[lane];
    EXPECT_EQ(0, std::memcmp(&sum[lane], &s, sizeof(double))) << "lane " << lane;
    EXPECT_EQ(0, std::memcmp(&diff[lane], &d, sizeof(double))) << "lane " << lane;
    EXPECT_EQ(0, std::memcmp(&prod[lane], &p, sizeof(double))) << "lane " << lane;
    // 0/0 is NaN on both paths, but NaN payloads are not part of the
    // contract; every non-NaN quotient (including infinities) must match.
    if (!std::isnan(q)) {
      EXPECT_EQ(0, std::memcmp(&quot[lane], &q, sizeof(double))) << "lane " << lane;
    }
  }
}

// 60 random impulse-reward MRMs — the header's "over random inputs" promise,
// with every count/scale combination above per model.
INSTANTIATE_TEST_SUITE_P(RandomModels, SimdKernels, ::testing::Range(1u, 61u));

TEST(SimdKernelsEdgeCases, BroadcastReplicatesTheExactBitPattern) {
  constexpr std::size_t lanes = core::simd::DoubleVec::kLanes;
  for (const double x : {0.0, -0.0, 1.5, -1e308, std::numeric_limits<double>::denorm_min()}) {
    double out[lanes];
    core::simd::DoubleVec::broadcast(x).store(out);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(0, std::memcmp(&out[lane], &x, sizeof(double))) << "lane " << lane;
    }
  }
}

TEST(SimdKernelsEdgeCases, ZeroCountTouchesNothing) {
  double sentinel = 42.0;
  core::simd::axpy(&sentinel, &sentinel, 0, 3.0);
  core::simd::scale(&sentinel, &sentinel, 0, 3.0);
  core::simd::fill_affine(&sentinel, 0, 7, 3.0, 1.0);
  EXPECT_EQ(sentinel, 42.0);
}

}  // namespace
}  // namespace csrlmrm
