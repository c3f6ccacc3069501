// Signature-class dynamic-programming engine for uniformization-based until
// checking — the checker's uniformization engine for P2-class until and
// performability queries. The depth-first path generator of the thesis
// (Algorithm 4.7) is its reference oracle; it lives with the other test
// oracles under tests/oracle/ (oracle/path_explorer.hpp).
//
// The DFS engine enumerates uniformized paths one by one and only merges
// their probabilities after harvesting, so its cost grows with the number of
// path prefixes. This engine advances a *frontier* of equivalence classes
//
//   (current state, reward signature (k, impulse total))  ->  probability mass
//
// one uniformization step (= one Poisson epoch) per level. The signature is
// encoded as (k counts, impulse total sum_i i_i j_i): the conditional
// probability of eq. (4.9) depends on j only through that total (it fixes
// the threshold r'), so the total is carried from level 0, snapped after
// every addition to the 40-bit canonical_threshold representative, and
// impulse histories with equal totals share one class. Two path prefixes
// that end in the same state with the same signature are indistinguishable
// for everything that follows — same continuations, same conditional
// probability Pr{ Y(t) <= r | n, k, j } — so their masses are summed the
// moment they collide instead of being explored twice. On models with heavy
// signature collisions (few distinct rewards, many interleavings) the
// frontier stays polynomial where the DFS tree is exponential.
//
// Error accounting matches the DFS engine's eq. (4.4)/(4.6) discipline,
// lifted to merged classes: alongside its mass every class tracks how many
// path prefixes it aggregates, and a class is cut at level n when
// PoissonPmf(n) * mass < w * count — i.e. when the *average* prefix weight
// falls below the truncation probability, the faithful aggregate of the
// per-path rule (4.4). (Pruning on the total mass alone would keep a class
// alive as long as thousands of individually-sub-w prefixes sum past w,
// exploring far more than the DFS does at equal w.) Cut mass contributes
// mass * Pr{ N >= n } to the error bound exactly as in eq. (4.6), so the
// returned probability p brackets the exact value as p <= p_exact <=
// p + error_bound and the two engines agree within the sum of their
// reported bounds.
//
// Absorbed tails: on M[!Phi v Psi] every Psi-state is absorbing with zero
// reward (Def. 4.1, Thm. 4.1), so once a class reaches one its future is
// fixed — every later epoch is the probability-1 self-loop, which leaves
// weights and counts alone and adds one unit of the last reward class (d =
// 0) to k. Such an absorbed row leaves the frontier at the level it
// arrives: it is kept in a sorted side list (an arrival whose key a tail
// already holds folds into it, as the level fold would have merged the
// two), pruned by the same per-slot rule each level, and harvested in
// place — PoissonPmf(level) * weight * Omega(r', k) goes straight into the
// slot's probability. Omega runs as a forward-flow chain
// (OmegaEvaluator::flow_start, then one O(||k_G||) flow_extend per level;
// see omega.hpp) instead of a full evaluation per (k, r') group, and the
// tails are never expanded or folded. They still count as classes of
// their level — nodes, one raw and one folded row each — so the node
// budget, the fold ratio and the hand-off trigger are those of the plain
// sweep. The harvest fold at the end now serves only non-absorbed
// Psi-rows (performability queries, where Psi is every state of an
// untransformed model). "classdp.tail_merges" counts arrivals folded into
// a tail; "omega.chain_steps" the flow extensions.
//
// Multi-start batching: the checker's until fan-out queries the same formula
// from every Phi-state. Instead of one engine run per start, compute_batch
// carries one weight slot per queried start through a single frontier sweep;
// classes reached from several starts are stored once and each conditional
// probability is evaluated once for the whole batch. Slots are fully
// independent (pruning, error, harvest are per-slot), so a batch run is
// bitwise identical to the corresponding single-start runs as long as the
// hybrid hand-off below does not fire.
//
// Retained workspace: the frontier and its two scratch copies, the tails
// with their chains and flow columns, the fold order and the buffers that
// compute it, the expansion offsets, the harvest arrays and the hand-off
// chunk buffers live in one workspace per calling
// thread, kept across compute_batch calls (their capacity only: every call
// clears the workspace on entry, so a call that threw leaves nothing for
// the next one to see, and results are bitwise those of a fresh thread). A call that nests inside
// another on the same thread uses a local workspace instead. The storage is
// page-backed (numeric/page_buffer.hpp), mapped straight from the system and
// released when the thread exits: kept in malloc's arenas, a few MB of
// retained frontier rows raise glibc's dynamic mmap threshold and the
// arenas then hold their high-water mark. Retained, the buffers are not
// faulted in again on every solve of a warm engine. The
// "classdp.workspace_bytes" gauge reports what the calling thread's
// workspace maps at the end of each call.
//
// Parallelism: per-level frontier expansion is data-parallel (each class
// writes its successors into a precomputed disjoint slice), and merging
// orders the successor array stably by key before folding adjacent equal
// keys, so results are bitwise identical at every thread count. The order
// comes from a counting pass by target state and a merge of each state's
// presorted runs (numeric/run_merge.hpp), not from a comparison sort: a
// sorted frontier sends every target state one sorted run per parent state.
//
// Adaptive hybrid hand-off (always armed): merging is only worth the
// per-level fold when classes actually collide. The engine tracks the fold
// ratio per level and, after three consecutive levels with at least 4096 raw
// successor rows where folding kept >= 7/10 of them, finishes every
// remaining class with a depth-first continuation (the sweep's own prune
// and harvest routines, the same budget and error semantics, no further
// merge attempts; a path entering an absorbed state finishes as a tail),
// run once for the whole batch. The hand-off preserves
// thread-count determinism (the trigger sees thread-invariant row counts;
// the continuation's chunking is fixed), but a batch whose trigger fires is
// not bitwise equal to per-start single runs (the trigger sees different
// frontier sizes). Observability: "classdp.raw_rows" / "classdp.folded_rows"
// (summed over levels; their quotient is the fold ratio),
// "classdp.hybrid_handoffs", "classdp.handoff_roots",
// "classdp.handoff_nodes" and the "classdp.handoff_level" gauge.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/signature_model.hpp"

namespace csrlmrm::numeric {

/// Layered signature-class DP engine for P2-class until formulas on one
/// transformed MRM. Construct once per formula; query per starting state
/// (or batch of starting states) and bound.
///
/// Result-field semantics differ slightly from the DFS engine because the
/// unit of work is a frontier class, not a path:
///   - probability / error_bound   per queried start (exact analogue);
///   - paths_stored                harvested (class, level) pairs, tail
///                                 levels included;
///   - paths_truncated             per-slot pruning events;
///   - signature_classes           Omega-evaluation granularity: distinct
///                                 (k, canonical r') groups of the harvest
///                                 fold plus one per harvesting tail;
///   - nodes_expanded              frontier classes processed across levels;
///   - max_depth                   deepest level (epoch count) reached.
/// In a batch, the diagnostic counts are shared across all slots (every
/// returned element carries the same values); probability and error_bound
/// are per-slot.
class SignatureClassUntilEngine {
 public:
  /// `transformed` is M[!Phi v Psi] (read during construction only, not
  /// kept), `psi` marks Sat(Psi), `dead` the states satisfying neither Phi
  /// nor Psi (the formula is unsatisfiable there). Masks must match the state
  /// count.
  SignatureClassUntilEngine(const core::Mrm& transformed, std::vector<bool> psi,
                            std::vector<bool> dead);

  SignatureClassUntilEngine(const SignatureClassUntilEngine&) = delete;
  SignatureClassUntilEngine& operator=(const SignatureClassUntilEngine&) = delete;

  /// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } from `start`; equivalent to a
  /// one-element compute_batch. Requires t >= 0 and r >= 0 finite.
  UntilUniformizationResult compute(core::StateIndex start, double t, double r,
                                    const PathExplorerOptions& options = {}) const;

  /// Evaluates the formula from every element of `starts` in one frontier
  /// sweep. Duplicate starts are allowed (their slots share classes).
  /// Returns one result per element of `starts`, in order. max_nodes is a
  /// budget for the whole batch (frontier classes processed), so a batch may
  /// exhaust it where isolated runs would not.
  std::vector<UntilUniformizationResult> compute_batch(
      const std::vector<core::StateIndex>& starts, double t, double r,
      const PathExplorerOptions& options = {}) const;

 private:
  /// The signature model with transitions into dead states dropped from its
  /// adjacency: the DFS cuts at dead states exactly (no error contribution),
  /// the DP never generates the class in the first place.
  SignatureModel sig_;
  /// absorbed_[s]: s is a live state whose only uniformized transition is a
  /// probability-1 self-loop without impulse and whose reward is the
  /// smallest (coefficient d = 0) — every Psi-state of M[!Phi v Psi]. Its
  /// rows run as tails (see the header comment).
  std::vector<bool> absorbed_;
};

}  // namespace csrlmrm::numeric
