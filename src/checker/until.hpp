// Until-formula evaluation (sections 3.8.2, 4.3.2, 4.5, 4.6).
//
// Dispatches on the bound shapes the thesis distinguishes:
//   P0: Phi U Psi                — least solution of a linear system (3.8)
//   P1: Phi U^[0,t] Psi          — transient analysis of M[!Phi v Psi]
//                                  (Theorem 4.1): one backward
//                                  uniformization series from the Psi
//                                  indicator answers every start state
//   P1': Phi U^[t1,t2] Psi       — the two-phase reduction of [Bai03]: the
//                                  P1 problem on [0, t2-t1] gives residual
//                                  values, then backward series over
//                                  M[!Phi] to t1, started from the residual
//                                  value, error and enclosure vectors, carry
//                                  them to every start state; reward bound
//                                  must be trivial
//   P2: Phi U^[0,t]_[0,r] Psi    — uniformization (signature-class DP) or
//                                  discretization on M[!Phi v Psi]
//                                  (Theorems 4.1 + 4.3)
//   point-interval variant Phi U^[t,t]_[0,r] Psi with Psi => Phi
//                                — same engines on M[!Phi && !Psi]
//                                  (Theorems 4.2 + 4.3)
// Other bound shapes raise UnsupportedFormulaError.
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/interval.hpp"

namespace csrlmrm::checker {

/// Probability (and, for approximate methods, error bound) of one until
/// query, with a rigorous interval enclosing the true probability.
struct UntilValue {
  double probability = 0.0;
  /// A-priori error bound: for the truncating engines the probability mass
  /// lost below the reported value (for the series plus its mass rounding);
  /// for discretization the half-width of the derived O(d) error band. 0 for
  /// exact graph/linear-algebra methods.
  double error_bound = 0.0;
  /// Rigorous enclosure of the true probability: [p, p + e] for class-DP,
  /// [p - rho, p + eps + rho] for the series with mass rounding rho,
  /// [p - e, p + e] for discretization, the point [p, p] for exact methods.
  ProbabilityBound bound = ProbabilityBound::point(0.0);
};

/// An exactly computed probability (graph/linear-algebra path).
inline UntilValue exact_until_value(double p) {
  return {p, 0.0, ProbabilityBound::point(p)};
}

/// A probability computed by a truncating engine: up to `lost` mass was cut
/// and would only have *increased* the value.
inline UntilValue truncated_until_value(double p, double lost) {
  return {p, lost, ProbabilityBound::from_point_error(p, 0.0, lost)};
}

/// A probability with a symmetric error band (discretization).
inline UntilValue two_sided_until_value(double p, double half_width) {
  return {p, half_width, ProbabilityBound::from_point_error(p, half_width, half_width)};
}

/// The dispatch class of an until query, decided from its bound shapes
/// alone (see the header comment). until_probabilities dispatches on it and
/// the plan printer reports it.
enum class UntilClass {
  kUnbounded,        // P0: linear system on the embedded DTMC
  kTimeBounded,      // P1: transient analysis of M[!Phi v Psi]
  kTwoPhase,         // P1': [t1,t2] two-phase reduction via M[!Phi]
  kTimeReward,       // P2: [0,t] + [0,r] on M[!Phi v Psi], engine-evaluated
  kPointTimeReward,  // [t,t] + [0,r] on M[!Phi && !Psi] (Theorem 4.2)
  kUnsupported,      // until_probabilities raises UnsupportedFormulaError
};

/// Stable class name for the plan printer ("P1:time-bounded", ...).
const char* to_string(UntilClass cls);

/// The class of an until query with these bounds: the one place the
/// dispatch is decided.
UntilClass classify_until(const logic::Interval& time_bound,
                          const logic::Interval& reward_bound);

/// The method a uniformization-configured P2-class query actually runs,
/// resolved on the *transformed* model M[!Phi v Psi] with time bound t:
/// kDiscretization when even a perfectly merging frontier is over the node
/// budget (live states x Poisson levels > max_nodes, a lower bound on the
/// signature-class DP's work), the model has no impulse rewards (so a
/// discretization step always exists), and the budget policy is not kThrow
/// (which forbids degrading behind the user's back — the query then runs
/// uniformization and fails loudly); kUniformization otherwise.
/// Deterministic and O(states). The decision lands in the
/// `engine.auto_choice.{classdp,discretization}` counters when the checker
/// applies it.
UntilMethod choose_until_engine(const core::Mrm& transformed, double t,
                                const CheckerOptions& options);

/// P(s, Phi U Psi) for every state s: the unbounded-until probabilities of
/// eq. (3.8), computed by graph precomputation (states that cannot reach Psi
/// through Phi get exactly 0) plus first_step_solve on the embedded DTMC with
/// x = 1 on Psi.
std::vector<double> unbounded_until_probabilities(const core::Mrm& model,
                                                  const std::vector<bool>& sat_phi,
                                                  const std::vector<bool>& sat_psi,
                                                  const linalg::IterativeOptions& solver = {});

/// P(s, Phi U_J^I Psi) for every state s, dispatching on classify_until.
/// Masks must have one entry per state.
///
/// `transforms` memoizes the absorbing transforms this query builds
/// (M[!Phi v Psi], M[!Phi], M[!Phi && !Psi]), so queries over the same model
/// share them; it must be bound to `model` (std::invalid_argument otherwise).
/// When it is null the call uses a cache of its own. The call does not touch
/// the cache inside the per-state fan-out.
std::vector<UntilValue> until_probabilities(const core::Mrm& model,
                                            const std::vector<bool>& sat_phi,
                                            const std::vector<bool>& sat_psi,
                                            const logic::Interval& time_bound,
                                            const logic::Interval& reward_bound,
                                            const CheckerOptions& options = {},
                                            core::TransformCache* transforms = nullptr);

}  // namespace csrlmrm::checker
