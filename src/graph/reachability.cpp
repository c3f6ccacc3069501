#include "graph/reachability.hpp"

#include <stdexcept>

namespace csrlmrm::graph {

namespace {
void require_square_and_sized(const linalg::CsrMatrix& adjacency, const std::vector<bool>& mask,
                              const char* what) {
  if (adjacency.cols() != adjacency.rows()) {
    throw std::invalid_argument(std::string(what) + ": matrix not square");
  }
  if (mask.size() != adjacency.rows()) {
    throw std::invalid_argument(std::string(what) + ": mask size mismatch");
  }
}
}  // namespace

std::vector<bool> backward_reachable(const linalg::CsrMatrix& adjacency,
                                     const std::vector<bool>& targets) {
  std::vector<bool> allowed(adjacency.rows(), true);
  return backward_reachable_via(adjacency, allowed, targets);
}

std::vector<bool> backward_reachable_via(const linalg::CsrMatrix& adjacency,
                                         const std::vector<bool>& allowed,
                                         const std::vector<bool>& targets) {
  require_square_and_sized(adjacency, targets, "backward_reachable_via");
  require_square_and_sized(adjacency, allowed, "backward_reachable_via");

  const linalg::CsrMatrix reverse = adjacency.transposed();
  std::vector<bool> seen = targets;
  std::vector<std::size_t> worklist;
  for (std::size_t v = 0; v < seen.size(); ++v) {
    if (seen[v]) worklist.push_back(v);
  }
  while (!worklist.empty()) {
    const std::size_t v = worklist.back();
    worklist.pop_back();
    for (const auto& e : reverse.row(v)) {
      // e.col has an edge into v; it may pass through only if it is allowed
      // (targets themselves were already seeded above).
      if (!seen[e.col] && allowed[e.col]) {
        seen[e.col] = true;
        worklist.push_back(e.col);
      }
    }
  }
  return seen;
}

}  // namespace csrlmrm::graph
