// Forward transient series p(t) = p(0) * sum_i PoissonPmf(i; Lambda t) P^i,
// the per-distribution oracle of the backward series in numeric/transient.hpp
// (same P, same Poisson window and masses). Terms advance with the blocked
// gather over P^T, bitwise equal to a serial CSR gather at any thread count.
// The steady-state fold measures successive terms in the 1-norm, in which
// the forward iteration is non-expansive.
#pragma once

#include <vector>

#include "core/rate_matrix.hpp"
#include "numeric/transient.hpp"

namespace csrlmrm::numeric {

/// Forward series: state occupation probabilities at time t >= 0 starting
/// from distribution `initial` (one finite, non-negative entry per state,
/// summing to 1 within 1e-6). Throws std::invalid_argument on bad inputs.
std::vector<double> transient_distribution(const core::RateMatrix& rates,
                                           const std::vector<double>& initial, double t,
                                           const TransientOptions& options = {});

/// transient_distribution plus the fold error, detection flag and term count.
TransientResult transient_distribution_checked(const core::RateMatrix& rates,
                                               const std::vector<double>& initial, double t,
                                               const TransientOptions& options = {});

/// Convenience: transient distribution started from a single state.
std::vector<double> transient_distribution_from(const core::RateMatrix& rates,
                                                core::StateIndex start, double t,
                                                const TransientOptions& options = {});

}  // namespace csrlmrm::numeric
