// numeric::PageBuffer, the page-backed array behind class-DP's retained
// workspace: the std::vector semantics the engine relies on (value-
// initialized growth, clear() keeping the mapping, geometric growth that
// keeps the contents), and, in AddressSanitizer builds, that elements past
// size() are unaddressable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/page_buffer.hpp"

namespace csrlmrm::numeric {
namespace {

TEST(PageBuffer, StartsEmptyAndMapsNothing) {
  const PageBuffer<double> buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.bytes(), 0u);
  EXPECT_EQ(buffer.data(), nullptr);
}

TEST(PageBuffer, ResizeValueInitializesEveryNewElementAfterClear) {
  PageBuffer<std::uint32_t> buffer;
  buffer.resize(1000);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], 0u);
    buffer[i] = 7;
  }
  const std::size_t mapped = buffer.bytes();
  EXPECT_GE(mapped, 1000 * sizeof(std::uint32_t));
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.bytes(), mapped);  // clear keeps the mapping
  buffer.resize(600);
  for (std::size_t i = 0; i < buffer.size(); ++i) EXPECT_EQ(buffer[i], 0u) << i;
  buffer.resize(100);  // shrinking keeps the prefix
  buffer[99] = 5;
  buffer.resize(101);
  EXPECT_EQ(buffer[99], 5u);
  EXPECT_EQ(buffer[100], 0u);
  EXPECT_EQ(buffer.bytes(), mapped);
}

TEST(PageBuffer, GrowthKeepsContentsAndRefillingDoesNotGrow) {
  PageBuffer<std::size_t> buffer;
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < 100000; ++i) {
    buffer.push_back(i * 3);
    expected.push_back(i * 3);
  }
  ASSERT_EQ(buffer.size(), expected.size());
  EXPECT_TRUE(std::equal(buffer.begin(), buffer.end(), expected.begin()));
  EXPECT_EQ(buffer.back(), expected.back());
  const std::size_t mapped = buffer.bytes();
  buffer.clear();
  for (const std::size_t value : expected) buffer.push_back(value);
  EXPECT_EQ(buffer.bytes(), mapped);
}

TEST(PageBuffer, AppendAssignAndSwap) {
  PageBuffer<double> a;
  const std::vector<double> source = {1.5, -2.0, 0.25};
  a.append(source.data(), source.size());
  a.append(source.data(), 0);
  a.append(source.data(), 2);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[3], 1.5);
  EXPECT_EQ(a[4], -2.0);

  PageBuffer<double> b;
  b.assign(4, 9.0);
  ASSERT_EQ(b.size(), 4u);
  for (const double value : b) EXPECT_EQ(value, 9.0);

  a.swap(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(a[0], 9.0);
  EXPECT_EQ(b[1], -2.0);
}

#if defined(CSRLMRM_ASAN)
TEST(PageBufferDeathTest, ReadPastTheLiveEndIsReported) {
  PageBuffer<double> buffer;
  buffer.resize(8);
  buffer.resize(4);
  const double* data = buffer.data();
  EXPECT_DEATH(
      {
        const volatile double past = data[5];
        (void)past;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace csrlmrm::numeric
