// Ordinary lumpability for Markov reward models.
//
// Two states may share a block only if they agree on (a) label set, (b)
// state reward, and (c) for every block B, the multiset of (aggregate rate
// into B, impulse value) pairs of their transitions — refined iteratively to
// the coarsest fixed point. The (c) condition groups each state's
// transitions into a block by impulse value: this is stronger than plain
// CTMC lumpability but is exactly what preserves the joint distribution of
// (state process, accumulated reward) — and hence every CSRL formula — under
// the quotient: the uniformized path signatures (k, j) of section 4.4.2 are
// in measure-preserving bijection.
//
// The quotient MRM merges each block into one state. The Mrm representation
// admits one impulse per ordered state pair, so blocks whose transitions
// into one target block mix impulse values are split further (the
// incoming-impulse refinement in compute_lumping), keeping the quotient
// representable: the partition is possibly finer than optimal but sound.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mrm.hpp"

namespace csrlmrm::core {

/// Result of a lumping computation.
struct Lumping {
  /// block_of[s] is the block (quotient-state) index of original state s.
  std::vector<std::size_t> block_of;
  /// Number of blocks = number of quotient states.
  std::size_t num_blocks = 0;
  /// One representative original state per block (the smallest member).
  std::vector<StateIndex> representative;
};

/// Computes a sound lumping partition of `model` as described above.
Lumping compute_lumping(const Mrm& model);

/// Builds the quotient MRM induced by `lumping` (labels, state reward and
/// outgoing (rate, impulse) structure taken from each block representative;
/// rates into a target block are aggregated). `lumping` must come from
/// compute_lumping on the same model.
Mrm build_quotient(const Mrm& model, const Lumping& lumping);

/// Convenience: compute_lumping + build_quotient.
Mrm lump(const Mrm& model);

}  // namespace csrlmrm::core
