// Shared preprocessing of the two uniformization Until engines (the DFS
// path generator of path_explorer.hpp and the signature-class DP of
// class_explorer.hpp): distinct-reward bookkeeping and the flattened
// uniformized DTMC with per-transition impulse classes.
//
// Both engines classify uniformized paths by their reward signature (k, j) —
// k counts Poisson-epoch residences per distinct-state-reward class, j counts
// transitions per distinct-impulse class — so both need the same mapping from
// states/transitions to class indices. Factoring it here keeps the mapping
// in one place and makes the engines cross-checkable by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mrm.hpp"

namespace csrlmrm::numeric {

/// One flattened uniformized transition with its impulse class.
struct SignatureTransition {
  core::StateIndex target = 0;
  /// 1-step probability of the uniformized DTMC (including self loops).
  double probability = 0.0;
  /// log(probability), carried separately so the DFS engine can accumulate
  /// path weights in the log domain without re-taking logs per node.
  double log_probability = 0.0;
  /// Index into distinct_impulse_rewards (self loops carry impulse 0).
  std::size_t impulse_class = 0;
};

/// The preprocessed model both Until engines run on. Owns its copy of the
/// transformed MRM (M[!Phi v Psi] or M[!Phi && !Psi]); `psi` marks Sat(Psi),
/// `dead` the states satisfying neither Phi nor Psi.
struct SignatureModel {
  /// Masks must match the state count (std::invalid_argument otherwise).
  SignatureModel(core::Mrm transformed, std::vector<bool> psi_mask,
                 std::vector<bool> dead_mask);

  core::Mrm model;
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
