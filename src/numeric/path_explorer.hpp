// Depth-first path generation (Algorithm 4.7) and the uniformization-based
// evaluation of time- and reward-bounded until formulas (eq. 4.5) with the
// a-priori error bound for truncated paths (eq. 4.6).
//
// The engine works on an MRM that has *already* been transformed by
// make_absorbing(Sat(!Phi) u Sat(Psi)) (Theorems 4.1/4.3), so
//
//   P(s, Phi U_[0,r]^[0,t] Psi) = Pr{ Y(t) <= r, X(t) |= Psi }
//     ~  sum over truncated uniformized paths ending in a Psi-state of
//        P(sigma, t) * Pr{ Y(t) <= r | n, k, j }.
//
// Paths are classified by their reward signature: k counts Poisson-epoch
// residences per distinct-state-reward class, j counts transitions per
// distinct-impulse class. Probabilities of same-signature paths are summed
// before the conditional probability (an Omega evaluation) is applied — the
// recomputation-avoidance the thesis describes at the end of 4.4.2.
//
// The checker evaluates these formulas with the signature-class DP engine
// (class_explorer.hpp); this engine is kept as the thesis-faithful reference
// it is tested and benchmarked against, and is called only from tests and
// benches.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/labels.hpp"
#include "core/mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/signature_model.hpp"

namespace csrlmrm::numeric {

/// Thrown when an engine exceeds PathExplorerOptions::max_nodes. Typed so the
/// checker can distinguish "model too large for path enumeration" (and apply
/// its degradation policy, see checker::BudgetPolicy) from genuine input
/// errors.
class NodeBudgetError : public std::runtime_error {
 public:
  explicit NodeBudgetError(const std::string& message) : std::runtime_error(message) {}
};

/// Tuning knobs for the depth-first exploration.
struct PathExplorerOptions {
  /// Truncation probability w: branches whose P(sigma, t) drops below w are
  /// cut and accounted in the error bound. Must be in (0, 1).
  double truncation_probability = 1e-8;
  /// Depth truncation N (eq. 4.3): additionally cut every path after N
  /// transitions, accounting the discarded mass in the error bound. 0
  /// disables it (pure path truncation, eq. 4.4/4.5 — the thesis's
  /// preferred mode). Both truncations may be combined.
  std::size_t depth_truncation = 0;
  /// DFS engine only: sum probabilities per (k, j) signature before calling
  /// Omega (the paper's optimization). Off = one Omega evaluation per stored
  /// path; results are identical, only cost differs (ablation knob for
  /// bench_ablation; the signature-class DP merges by signature inherently).
  bool aggregate_signatures = true;
  /// Safety valve: abort (std::runtime_error) after this many DFS node
  /// expansions (or, for the signature-class DP engine, frontier classes
  /// processed) — uniformization is only practical for small Lambda*t
  /// (thesis, ch. 6) and this keeps runaway instances diagnosable.
  std::size_t max_nodes = 500'000'000;
  /// Worker threads for the signature-class DP engine's per-level frontier
  /// expansion (see class_explorer.hpp); the DFS engine is inherently serial
  /// and ignores this. 0 = the process default (CSRLMRM_THREADS or hardware
  /// concurrency).
  unsigned threads = 0;
};

/// Result of one until evaluation.
struct UntilUniformizationResult {
  /// The approximated probability P(s, Phi U_[0,r]^[0,t] Psi).
  double probability = 0.0;
  /// Error bound of eq. (4.6): total truncated-path mass that could still
  /// have satisfied the formula.
  double error_bound = 0.0;
  /// Number of stored path prefixes ending in a Psi-state.
  std::size_t paths_stored = 0;
  /// Number of DFS branches cut by the truncation probability w or the depth
  /// bound N (each contributes its discarded mass to error_bound).
  std::size_t paths_truncated = 0;
  /// Number of distinct (k, j) signatures among stored paths.
  std::size_t signature_classes = 0;
  /// DFS nodes expanded.
  std::size_t nodes_expanded = 0;
  /// Deepest path length (number of transitions) reached.
  std::size_t max_depth = 0;
};

/// Depth-first uniformization engine for P2-class until formulas on one
/// transformed MRM (the reference oracle, see above). Construct once per
/// formula; query per starting state / bound.
class UniformizationUntilEngine {
 public:
  /// `transformed` is M[!Phi v Psi] (taken by value: the engine keeps its own
  /// copy so callers may discard theirs). `psi` marks Sat(Psi); `dead` marks
  /// the states satisfying neither Phi nor Psi, from which the formula is
  /// unsatisfiable (exploration cuts there without contributing error).
  /// Masks must match the state count.
  UniformizationUntilEngine(core::Mrm transformed, std::vector<bool> psi,
                            std::vector<bool> dead);

  UniformizationUntilEngine(const UniformizationUntilEngine&) = delete;
  UniformizationUntilEngine& operator=(const UniformizationUntilEngine&) = delete;

  /// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } from `start`. Requires t >= 0
  /// finite and r >= 0 finite; t = 0 short-circuits to the indicator of
  /// start |= Psi.
  UntilUniformizationResult compute(core::StateIndex start, double t, double r,
                                    const PathExplorerOptions& options = {}) const;

  /// The distinct state rewards r_1 > ... > r_{K+1} of the transformed model.
  const std::vector<double>& distinct_state_rewards() const {
    return sig_.distinct_state_rewards;
  }
  /// The distinct impulse rewards i_1 > ... > i_J (always containing 0, the
  /// impulse of uniformization self-loops).
  const std::vector<double>& distinct_impulse_rewards() const {
    return sig_.distinct_impulse_rewards;
  }
  /// The uniformization rate Lambda.
  double lambda() const { return sig_.lambda; }

 private:
  SignatureModel sig_;
};

}  // namespace csrlmrm::numeric
