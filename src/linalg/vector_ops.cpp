#include "linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

namespace csrlmrm::linalg {

namespace {
void require_same_size(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("vector size mismatch: " + std::to_string(a.size()) +
                                " vs " + std::to_string(b.size()));
  }
}
}  // namespace

double linf_distance(const std::vector<double>& a, const std::vector<double>& b) {
  require_same_size(a, b);
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (double e : v) acc += e;
  return acc;
}

void normalize_to_distribution(std::vector<double>& v) {
  const double s = sum(v);
  if (!(s > 0.0)) {
    throw std::domain_error("cannot normalize vector with non-positive sum");
  }
  for (double& e : v) e /= s;
}
}  // namespace csrlmrm::linalg
