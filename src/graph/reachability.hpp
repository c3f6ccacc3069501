// Reachability queries on the directed graph of a rate matrix. Used by the
// model checker for the graph-based precomputations of unbounded-until
// ("Prob0": states that cannot reach a Psi-state through Phi-states get
// probability exactly 0) and for steady-state BSCC reachability.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace csrlmrm::graph {

/// States from which some state in `targets` is reachable (every target can
/// reach itself). `targets` and the result are membership masks of length
/// adjacency.rows().
std::vector<bool> backward_reachable(const linalg::CsrMatrix& adjacency,
                                     const std::vector<bool>& targets);

/// States from which a `targets`-state is reachable along paths whose
/// intermediate states (all states strictly before the target) are in
/// `allowed`. Targets count as reachable from themselves regardless of
/// `allowed`. This is the precomputation for P(s, Phi U Psi) > 0: pass
/// allowed = Sat(Phi), targets = Sat(Psi).
std::vector<bool> backward_reachable_via(const linalg::CsrMatrix& adjacency,
                                         const std::vector<bool>& allowed,
                                         const std::vector<bool>& targets);

}  // namespace csrlmrm::graph
