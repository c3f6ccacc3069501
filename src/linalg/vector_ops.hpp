// Small dense-vector helpers shared by the iterative solvers and the
// numerical engines. All functions operate on std::vector<double> and are
// deliberately allocation-free unless stated otherwise.
#pragma once

#include <cstddef>
#include <vector>

namespace csrlmrm::linalg {

/// Maximum absolute difference between two equally sized vectors.
double linf_distance(const std::vector<double>& a, const std::vector<double>& b);

/// Sum of all entries.
double sum(const std::vector<double>& v);

/// Scales v so its entries sum to 1. Throws std::domain_error if the sum is
/// not positive (an all-zero vector cannot be normalized to a distribution).
void normalize_to_distribution(std::vector<double>& v);

}  // namespace csrlmrm::linalg
