// Transient analysis of a CTMC by uniformization (eq. 2.2), with
// P = I + Q/Lambda the uniformized one-step matrix and the Poisson series
// truncated to numeric::poisson_window: each term weighted by its
// unnormalized Poisson mass, at most epsilon of mass left outside.
//
// The checker labels every state, so its measures run the *backward* series:
// one column-vector iteration u_{k+1} = P u_k answers every start state at
// once in O(nnz * terms).
//   transient_backward  — E[ u0(X(t)) | X(0) = s ] for every s: P1 until
//                         (u0 = the Psi indicator on M[!Phi v Psi],
//                         Theorem 4.1 + [Bai03]) and the P1' phase one;
//   occupation_backward — E[ int_0^t g(X(u)) du | X(0) = s ] for every s:
//                         the R[C] cumulative reward (g = gain rates).
// The forward row-vector series p(t) = p(0) * sum_i PoissonPmf(i) P^i is
// the per-distribution test oracle (tests/oracle/transient_forward.hpp).
//
// Every series ping-pongs two preallocated buffers (no per-term
// allocation) and advances with one operator at every model size: the
// blocked gather linalg::BlockedCsrMatrix::multiply_into over P. Each
// output entry accumulates in ascending source order at any thread count, so
// results are bitwise-identical to a serial CSR gather. Input vectors must be finite (std::invalid_argument otherwise).
#pragma once

#include <vector>

#include "core/rate_matrix.hpp"
#include "linalg/csr_matrix.hpp"

namespace csrlmrm::numeric {

/// Options for the transient solver.
struct TransientOptions {
  /// Total truncation error budget for the Poisson sum.
  double epsilon = 1e-12;
  /// Worker threads for the series' matrix-vector products; 0 = the process
  /// default (CSRLMRM_THREADS or hardware concurrency).
  unsigned threads = 0;
  /// Steady-state detection (Malhotra '94 / Reibman-Trivedi '88 style): once
  /// successive series terms differ by delta with
  /// delta * (terms remaining) <= steady_epsilon, the remaining Poisson mass
  /// is folded into the current term in one axpy instead of advancing the
  /// series to the window's right edge, so depth stops scaling with
  /// Lambda*t on stiff models. The cut is sound — the contraction of the
  /// uniformized iteration bounds the per-state error by the reported
  /// TransientResult::steady_error <= steady_epsilon — but the folded result
  /// is numerically different from the full series, so detection is opt-in
  /// (off by default; paper-scale results stay bitwise unchanged).
  bool detect_steady_state = false;
  /// Absolute per-state error budget for the steady-state fold.
  double steady_epsilon = 1e-12;
};

/// A transient solve plus the accounting a sound interval verdict needs.
struct TransientResult {
  /// The per-state result vector: the per-start expectations of the backward
  /// series (a distribution for the forward test oracle).
  std::vector<double> values;
  /// Bound on the additional two-sided per-state error introduced by the
  /// steady-state fold; 0.0 when detection is off or never fired. The
  /// one-sided truncation budget `epsilon` is accounted separately by
  /// callers.
  double steady_error = 0.0;
  /// Bound on the additional two-sided per-state error from the rounding of
  /// the Poisson masses: the window's rounding bound times max |u0|.
  double rounding_error = 0.0;
  /// True iff the series was cut by steady-state detection.
  bool steady_state_detected = false;
  /// Series terms actually accumulated (1 + the number of matrix products).
  std::size_t series_terms = 0;
};

/// The uniformized one-step matrix P = I + Q/Lambda (Definition 4.2) with
/// Lambda = max exit rate (1 for an all-absorbing chain); `lambda_out`
/// receives Lambda. The self loop is 1 - (sum of the row's off-diagonal
/// probabilities), which keeps rows stochastic to machine precision. The one
/// builder of P: every series here and the uniformization engine's
/// SignatureModel use it.
linalg::CsrMatrix uniformized_transition_matrix(const core::RateMatrix& rates,
                                                double& lambda_out);

/// Backward uniformization: values[s] = E[ u0(X(t)) | X(0) = s ] for EVERY
/// state s, from one column-vector series u_{k+1} = P u_k started at `u0`
/// (one entry per state). With u0 the indicator of a target set that is
/// absorbing (the P1 until transform M[!Phi v Psi]) this is the probability
/// of reaching the target within t. For u0 with entries in [0, 1] the
/// unnormalized window masses lose at most options.epsilon per state
/// (one-sided); the reported rounding_error and steady_error (two-sided)
/// add to it — the backward iteration contracts in the max norm, which
/// makes the steady-state criterion sound for any u0.
TransientResult transient_backward(const core::RateMatrix& rates, std::vector<double> u0,
                                   double t, const TransientOptions& options = {});

/// Backward occupation series: values[s] = E[ int_0^t g(X(u)) du | X(0) = s ]
/// for every state s, in one pass, by
/// int_0^t PoissonPmf(k; Lambda u) du = Pr{N_t >= k+1} / Lambda. The series is
/// cut once the remaining tail weight is below epsilon / (Lambda t + 1), so
/// at most epsilon * t of residence time is lost per state: the result
/// underestimates by at most epsilon * t * max(g) for g >= 0. With g = e_j
/// (the indicator of j) this is the expected time spent in j during [0, t].
std::vector<double> occupation_backward(const core::RateMatrix& rates,
                                        const std::vector<double>& g, double t,
                                        const TransientOptions& options = {});

}  // namespace csrlmrm::numeric
