#include "graph/reachability.hpp"

#include <gtest/gtest.h>

#include "linalg/csr_matrix.hpp"

namespace csrlmrm::graph {
namespace {

linalg::CsrMatrix graph_from_edges(std::size_t n,
                                   std::initializer_list<std::pair<int, int>> edges) {
  linalg::CsrBuilder builder(n, n);
  for (const auto& [from, to] : edges) {
    builder.add(static_cast<std::size_t>(from), static_cast<std::size_t>(to), 1.0);
  }
  return builder.build();
}

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

TEST(Reachability, BackwardFindsAncestors) {
  const auto g = graph_from_edges(4, {{0, 1}, {1, 2}, {3, 2}});
  EXPECT_EQ(backward_reachable(g, mask(4, {2})), mask(4, {0, 1, 2, 3}));
}

TEST(Reachability, BackwardViaRespectsAllowedMask) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3; only intermediate 1 is allowed.
  const auto g = graph_from_edges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  const auto reach = backward_reachable_via(g, mask(4, {0, 1}), mask(4, {3}));
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);  // 2 can reach 3 but is not allowed to pass
  EXPECT_TRUE(reach[3]);
}

TEST(Reachability, TargetsCountEvenWhenNotAllowed) {
  // Targets are seeded regardless of the allowed mask (a Psi-state satisfies
  // Phi U Psi immediately, eq. 3.8 first case).
  const auto g = graph_from_edges(2, {{0, 1}});
  const auto reach = backward_reachable_via(g, mask(2, {0}), mask(2, {1}));
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[0]);
}

TEST(Reachability, BlockedPathIsUnreachable) {
  // 0 -> 1 -> 2 with 1 not allowed: 0 cannot reach 2.
  const auto g = graph_from_edges(3, {{0, 1}, {1, 2}});
  const auto reach = backward_reachable_via(g, mask(3, {0}), mask(3, {2}));
  EXPECT_FALSE(reach[0]);
  EXPECT_FALSE(reach[1]);
  EXPECT_TRUE(reach[2]);
}

TEST(Reachability, RejectsMaskSizeMismatch) {
  const auto g = graph_from_edges(2, {});
  EXPECT_THROW(backward_reachable(g, mask(1, {})), std::invalid_argument);
}

TEST(Reachability, CyclesAreHandled) {
  const auto g = graph_from_edges(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_EQ(backward_reachable(g, mask(3, {2})), mask(3, {0, 1, 2}));
}

}  // namespace
}  // namespace csrlmrm::graph
