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
// (numeric/class_explorer.hpp); this engine is kept as the thesis-faithful
// reference it is tested and benchmarked against, in the csrlmrm_oracle
// library. The DFS is serial: it ignores PathExplorerOptions::threads.
#pragma once

#include <cstddef>
#include <vector>

#include "core/labels.hpp"
#include "core/mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/signature_model.hpp"

namespace csrlmrm::numeric {

/// The shared knobs plus two only the DFS reads; implicitly constructible
/// from PathExplorerOptions, so a cross-check hands both engines the same.
struct PathGeneratorOptions : PathExplorerOptions {
  PathGeneratorOptions() = default;
  PathGeneratorOptions(const PathExplorerOptions& shared)
      : PathExplorerOptions(shared) {}

  /// Depth truncation N (eq. 4.3): additionally cut every path after N
  /// transitions, accounting the discarded mass in the error bound. 0
  /// disables it (pure path truncation, eq. 4.4/4.5 — the thesis's
  /// preferred mode). Both truncations may be combined.
  std::size_t depth_truncation = 0;
  /// Sum probabilities per (k, j) signature before calling Omega (the
  /// paper's optimization). Off = one Omega evaluation per stored path;
  /// results are identical, only cost differs (ablation knob for
  /// bench_ablation; the signature-class DP merges by signature inherently).
  bool aggregate_signatures = true;
};

/// Depth-first uniformization engine for P2-class until formulas on one
/// transformed MRM (the reference oracle, see above). Construct once per
/// formula; query per starting state / bound.
class UniformizationUntilEngine {
 public:
  /// `transformed` is M[!Phi v Psi] (read during construction only, not
  /// kept). `psi` marks Sat(Psi); `dead` marks
  /// the states satisfying neither Phi nor Psi, from which the formula is
  /// unsatisfiable (exploration cuts there without contributing error).
  /// Masks must match the state count.
  UniformizationUntilEngine(const core::Mrm& transformed, std::vector<bool> psi,
                            std::vector<bool> dead);

  UniformizationUntilEngine(const UniformizationUntilEngine&) = delete;
  UniformizationUntilEngine& operator=(const UniformizationUntilEngine&) = delete;

  /// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } from `start`. Requires t >= 0
  /// finite and r >= 0 finite; t = 0 short-circuits to the indicator of
  /// start |= Psi.
  UntilUniformizationResult compute(core::StateIndex start, double t, double r,
                                    const PathGeneratorOptions& options = {}) const;

 private:
  SignatureModel sig_;
  /// log(probability) per transition of sig_.adjacency, so path weights
  /// accumulate in the log domain without re-taking logs per node.
  std::vector<std::vector<double>> log_probability_;
};

}  // namespace csrlmrm::numeric
