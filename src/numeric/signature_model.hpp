// Preprocessing and contract of uniformization-based until checking: the
// options, the result record and the budget error of the signature-class DP
// engine (class_explorer.hpp), and the model it runs on — distinct-reward
// bookkeeping and the flattened uniformized DTMC with per-transition impulse
// classes.
//
// The engine classifies uniformized paths by their reward signature (k, j):
// k counts Poisson-epoch residences per distinct-state-reward class, j counts
// transitions per distinct-impulse class. The depth-first path generator of
// the thesis (Algorithm 4.7), kept as the engine's reference oracle under
// tests/oracle/, runs on the same SignatureModel, so the two share one
// mapping from states/transitions to class indices and are cross-checkable
// by construction.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mrm.hpp"

namespace csrlmrm::numeric {

/// Thrown when an engine exceeds PathExplorerOptions::max_nodes. Typed so the
/// checker can distinguish "model too large for path enumeration" (and apply
/// its degradation policy, see checker::BudgetPolicy) from genuine input
/// errors.
class NodeBudgetError : public std::runtime_error {
 public:
  explicit NodeBudgetError(const std::string& message) : std::runtime_error(message) {}
};

/// Tuning knobs for uniformization-based until checking.
struct PathExplorerOptions {
  /// Truncation probability w: path prefixes whose P(sigma, t) drops below w
  /// are cut and accounted in the error bound (eq. 4.4/4.5). Must be in
  /// (0, 1).
  double truncation_probability = 1e-8;
  /// Safety valve: abort (NodeBudgetError) after this many frontier classes
  /// processed — uniformization is only practical for small Lambda*t
  /// (thesis, ch. 6) and this keeps runaway instances diagnosable.
  std::size_t max_nodes = 500'000'000;
  /// Worker threads for the per-level frontier expansion (see
  /// class_explorer.hpp). 0 = the process default (CSRLMRM_THREADS or
  /// hardware concurrency).
  unsigned threads = 0;
};

/// Result of one until evaluation.
struct UntilUniformizationResult {
  /// The approximated probability P(s, Phi U_[0,r]^[0,t] Psi).
  double probability = 0.0;
  /// Error bound of eq. (4.6): total truncated-path mass that could still
  /// have satisfied the formula.
  double error_bound = 0.0;
  /// Number of stored path prefixes (or merged classes) ending in a
  /// Psi-state.
  std::size_t paths_stored = 0;
  /// Number of truncation events (each contributes its discarded mass to
  /// error_bound).
  std::size_t paths_truncated = 0;
  /// Number of distinct signatures among stored paths.
  std::size_t signature_classes = 0;
  /// Nodes (path prefixes or frontier classes) expanded.
  std::size_t nodes_expanded = 0;
  /// Deepest path length (number of transitions) reached.
  std::size_t max_depth = 0;
};

/// One flattened uniformized transition with its impulse class.
struct SignatureTransition {
  core::StateIndex target = 0;
  /// 1-step probability of the uniformized DTMC (including self loops).
  double probability = 0.0;
  /// Index into distinct_impulse_rewards (self loops carry impulse 0).
  std::size_t impulse_class = 0;
};

/// The preprocessed model the until engines run on, built from the
/// transformed MRM (M[!Phi v Psi] or M[!Phi && !Psi]), which it does not keep;
/// `psi` marks Sat(Psi), `dead` the states satisfying neither Phi nor Psi.
struct SignatureModel {
  /// Masks must match the state count (std::invalid_argument otherwise).
  SignatureModel(const core::Mrm& model, std::vector<bool> psi_mask,
                 std::vector<bool> dead_mask);

  std::size_t num_states = 0;
  std::vector<bool> psi;
  std::vector<bool> dead;
  /// Uniformization rate Lambda of the Poisson epochs (Definition 4.2).
  double lambda = 1.0;
  std::vector<double> distinct_state_rewards;    // r_1 > ... > r_{K+1}
  std::vector<double> distinct_impulse_rewards;  // i_1 > ... > i_J, contains 0
  std::vector<std::size_t> reward_class;         // state -> index into distinct rewards
  std::vector<std::vector<SignatureTransition>> adjacency;
};

}  // namespace csrlmrm::numeric
