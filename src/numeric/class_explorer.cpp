#include "numeric/class_explorer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "numeric/conditional.hpp"
#include "numeric/page_buffer.hpp"
#include "numeric/run_merge.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

/// Prefix counts saturate here instead of overflowing to infinity at extreme
/// depths (an infinite count would truncate everything; saturating merely
/// keeps the truncation rule conservative).
constexpr double kMaxPrefixCount = 1e300;

/// Adaptive-hybrid trigger (always armed, see class_explorer.hpp). A level is
/// "ineffective" when the fold kept >= 7/10 of the raw successor rows AND the
/// raw count is at least kAdaptMinRawRows — the absolute floor matters:
/// workloads with tiny frontiers (e.g. TMR-deep, < 500 rows/level at fold
/// ratios ~0.98) still win 30x+ from merging because the *early* levels
/// merged, so a pure ratio test would misfire. kAdaptStreak consecutive
/// ineffective levels hand the frontier off to the depth-first continuation.
/// Constants calibrated on the committed BENCH workloads (the NMR rows peak
/// at ~1e5 raw rows/level with fold ratios 0.72..1.0 from level 5 on; firing
/// before the frontier peak is what makes the hybrid beat a per-start DFS,
/// since the breadth-first fold of the peak levels is the dominant cost).
constexpr std::size_t kAdaptMinRawRows = 4096;
constexpr std::size_t kAdaptRatioNum = 7;   // ineffective when folded/raw >= 7/10
constexpr std::size_t kAdaptRatioDen = 10;
constexpr std::size_t kAdaptStreak = 3;

/// A double stored bitwise in two signature words (hi word first, so
/// lexicographic word order is deterministic per value). Used for the
/// snapped impulse total of a class and for the harvested threshold r'.
void store_double_bits(double v, std::uint32_t* out) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  out[0] = static_cast<std::uint32_t>(bits >> 32);
  out[1] = static_cast<std::uint32_t>(bits);
}

double load_double_bits(const std::uint32_t* in) {
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(in[0]) << 32) | static_cast<std::uint64_t>(in[1]);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Adds one transition's impulse reward to the snapped impulse total stored
/// at `total_bits`. Each addition re-snaps (canonical_threshold), so equal
/// totals reached along different orders keep one representative (<= 2^-41
/// relative perturbation per transition).
void add_impulse(std::uint32_t* total_bits, double impulse) {
  if (core::exactly_zero(impulse)) return;
  store_double_bits(canonical_threshold(load_double_bits(total_bits) + impulse), total_bits);
}

/// The Omega recursion's base cases (omega.cpp) for the counts k (one per
/// coefficient d) and threshold r', bitwise, without an evaluator: 1 when
/// no present class has d > r', 0 when none has d <= r'; nullopt when the
/// recursion has work to do.
std::optional<double> trivial_omega(const std::uint32_t* k, const std::vector<double>& spans,
                                    double r_prime) {
  bool any_greater = false;
  bool any_lesser = false;
  for (std::size_t l = 0; l < spans.size(); ++l) {
    if (k[l] == 0) continue;
    (spans[l] > r_prime ? any_greater : any_lesser) = true;
  }
  if (!any_greater) return 1.0;
  if (!any_lesser) return 0.0;
  return std::nullopt;
}

/// Struct-of-arrays frontier storage. Row i is the class of every path
/// prefix that ends in states[i] with reward signature
/// sigs[i*sig_len .. (i+1)*sig_len) (k counts ++ snapped impulse total); its
/// per-batch-slot summed prefix probabilities (1-step products, Poisson
/// factor applied lazily) and merged prefix counts live in
/// weights/counts[i*slots .. +slots).
/// Flat arrays instead of one heap-allocated entry per class: a level's
/// expansion writes a few hundred thousand children, and per-child vector
/// allocations dominated the engine's profile before this layout.
struct Frontier {
  PageBuffer<core::StateIndex> states;
  PageBuffer<std::uint32_t> sigs;
  PageBuffer<double> weights;
  PageBuffer<double> counts;

  std::size_t size() const { return states.size(); }
  bool empty() const { return states.empty(); }

  void resize(std::size_t n, std::size_t sig_len, std::size_t slots) {
    states.resize(n);
    sigs.resize(n * sig_len);
    weights.resize(n * slots);
    counts.resize(n * slots);
  }

  void clear() {
    states.clear();
    sigs.clear();
    weights.clear();
    counts.clear();
  }

  void swap(Frontier& other) {
    states.swap(other.states);
    sigs.swap(other.sigs);
    weights.swap(other.weights);
    counts.swap(other.counts);
  }

  std::size_t bytes() const {
    return states.bytes() + sigs.bytes() + weights.bytes() + counts.bytes();
  }

  /// Copies row `from` onto row `to` (prune compaction).
  void move_row(std::size_t to, std::size_t from, std::size_t sig_len, std::size_t slots) {
    states[to] = states[from];
    std::copy_n(sigs.begin() + static_cast<std::ptrdiff_t>(from * sig_len), sig_len,
                sigs.begin() + static_cast<std::ptrdiff_t>(to * sig_len));
    std::copy_n(weights.begin() + static_cast<std::ptrdiff_t>(from * slots), slots,
                weights.begin() + static_cast<std::ptrdiff_t>(to * slots));
    std::copy_n(counts.begin() + static_cast<std::ptrdiff_t>(from * slots), slots,
                counts.begin() + static_cast<std::ptrdiff_t>(to * slots));
  }

  /// Appends row `row` of `other` (another frontier).
  void append_row(const Frontier& other, std::size_t row, std::size_t sig_len,
                  std::size_t slots) {
    states.push_back(other.states[row]);
    sigs.append(other.sigs.data() + row * sig_len, sig_len);
    weights.append(other.weights.data() + row * slots, slots);
    counts.append(other.counts.data() + row * slots, slots);
  }

  /// Orders row `row` against row `other_row` of `other` by (state,
  /// signature), the fold's key order: negative, zero or positive.
  int compare_row(std::size_t row, const Frontier& other, std::size_t other_row,
                  std::size_t sig_len) const {
    if (states[row] != other.states[other_row]) {
      return states[row] < other.states[other_row] ? -1 : 1;
    }
    const std::uint32_t* a = sigs.data() + row * sig_len;
    const std::uint32_t* b = other.sigs.data() + other_row * sig_len;
    const auto [ia, ib] = std::mismatch(a, a + sig_len, b);
    if (ia == a + sig_len) return 0;
    return *ia < *ib ? -1 : 1;
  }
};

/// Folds the `raw` rows into `merged`: rows with equal (state, signature)
/// keys become one row, their weights and counts added slot-wise in raw
/// order, and the merged rows come out sorted by key — deterministic
/// regardless of how `raw` was produced (the expansion's chunk layout in
/// particular). The order is the stable one by key: a counting pass by
/// state, then a merge of each state's presorted runs (numeric/run_merge.hpp;
/// a sorted frontier sends each target state one run per parent state).
/// Returns the number of rows merged away.
std::size_t fold(const Frontier& raw, Frontier& merged, std::size_t sig_len, std::size_t slots,
                 std::size_t num_states, BucketSorter& sorter, PageBuffer<std::uint32_t>& order) {
  const std::size_t n = raw.size();
  const auto sig_row = [&](std::uint32_t row) {
    return raw.sigs.begin() + static_cast<std::ptrdiff_t>(row * sig_len);
  };
  sorter.sort(raw.states.data(), n, num_states, order, [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(sig_row(a), sig_row(a) + sig_len, sig_row(b),
                                        sig_row(b) + sig_len);
  });
  const auto key_equal = [&](std::uint32_t a, std::uint32_t b) {
    return raw.states[a] == raw.states[b] && std::equal(sig_row(a), sig_row(a) + sig_len, sig_row(b));
  };

  merged.clear();
  merged.states.reserve(n);
  merged.sigs.reserve(n * sig_len);
  merged.weights.reserve(n * slots);
  merged.counts.reserve(n * slots);
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++out) {
    const std::uint32_t lead = order[i];
    merged.states.push_back(raw.states[lead]);
    merged.sigs.append(sig_row(lead), sig_len);
    merged.weights.append(raw.weights.data() + lead * slots, slots);
    merged.counts.append(raw.counts.data() + lead * slots, slots);
    std::size_t j = i + 1;
    for (; j < n && key_equal(lead, order[j]); ++j) {
      const std::size_t other = order[j];
      for (std::size_t slot = 0; slot < slots; ++slot) {
        merged.weights[out * slots + slot] += raw.weights[other * slots + slot];
        merged.counts[out * slots + slot] = std::min(
            merged.counts[out * slots + slot] + raw.counts[other * slots + slot], kMaxPrefixCount);
      }
    }
    i = j;
  }
  return n - out;
}

/// Harvested Psi-mass: row i is the key keys[i*sig_len .. +sig_len)
/// (k counts ++ 2 words of canonical r' bits) with its per-slot level mass
/// in mass[i*slots .. +slots).
struct Harvest {
  PageBuffer<std::uint32_t> keys;
  PageBuffer<double> mass;

  void clear() {
    keys.clear();
    mass.clear();
  }

  std::size_t bytes() const { return keys.bytes() + mass.bytes(); }
};

/// One harvest row of any Harvest, as the final fold orders it.
struct HarvestRow {
  const std::uint32_t* key;
  double* mass;
};

/// The hand-off continuation's fixed root-chunk count (see compute_batch).
constexpr std::size_t kHandoffChunks = 64;

/// How an absorbed row's conditional probability Omega(r', k) evolves while
/// k gains one last-class unit per level: a constant (the trivial cases, or
/// no Psi-state at all) or a forward-flow chain (OmegaEvaluator::flow_start,
/// then flow_extend once per level). Fixed when the row enters its tail.
struct TailChain {
  const OmegaEvaluator* evaluator = nullptr;  // null: `omega` is the constant value
  std::size_t column = 0;  // the sweep's flow column, at Workspace::tail_columns[column]
  double omega = 0.0;      // Omega(r', k) as of the row's last harvested level
  bool psi = false;        // the row's state satisfies Psi, so it harvests
  bool started = false;    // the row has harvested at least one level
};

/// Harvest-side counters of the tails (one sweep's, or one chunk's).
struct TailTally {
  std::size_t stored = 0;       // harvested (row, level) pairs
  std::size_t evaluations = 0;  // harvesting tails with a flow chain (one full Omega value each)
  std::size_t trivial = 0;      // harvesting tails with a constant Omega

  void add(const TailTally& other) {
    stored += other.stored;
    evaluations += other.evaluations;
    trivial += other.trivial;
  }
};

/// What one hand-off chunk collects: harvest rows and counters, combined in
/// chunk order once every chunk has run. Its per-slot error and tail
/// probability partials live in Workspace::chunk_error / chunk_probability.
struct ChunkState {
  Harvest harvest;
  TailTally tally;
  OmegaWork work;
  std::size_t nodes = 0;
  std::size_t truncated = 0;
  std::size_t max_depth = 0;
  bool overflow = false;

  void clear() {
    harvest.clear();
    tally = {};
    work = {};
    nodes = truncated = max_depth = 0;
    overflow = false;
  }
};

/// Every buffer of a compute_batch call whose size follows the frontier
/// rather than the batch: the live frontier and both scratch frontiers, the
/// tails and their merge buffers, the fold order and its sorter, the
/// expansion offsets, the harvests and the hand-off chunks.
/// One workspace per calling thread is kept across calls (capacity only;
/// compute_batch clears it on entry), so a warm engine does not map and
/// fault in a few MB of fresh pages on every solve.
struct Workspace {
  Frontier frontier;
  Frontier scratch_raw;
  Frontier scratch_merged;
  Frontier tails;          // the absorbed rows, sorted by (state, signature)
  Frontier scratch_tails;  // merge output of tails and a level's arrivals
  PageBuffer<TailChain> chains;  // chains[i] belongs to tails row i
  PageBuffer<TailChain> scratch_chains;
  PageBuffer<double> tail_columns;  // the sweep's flow columns
  PageBuffer<std::uint32_t> order;  // a level's raw rows in fold order
  BucketSorter sorter;              // computes `order`; its state never outlives a call
  PageBuffer<std::size_t> offsets;
  Harvest harvest;                         // the level sweep's rows
  PageBuffer<HarvestRow> harvest_order;    // every harvest row, sorted for the fold
  PageBuffer<HarvestRow> harvest_scratch;  // merge buffers for ordering harvest_order
  PageBuffer<std::size_t> harvest_runs;
  std::array<ChunkState, kHandoffChunks> chunks;
  PageBuffer<double> chunk_error;  // chunk c's slots at [c * slots, (c + 1) * slots)
  PageBuffer<double> chunk_probability;  // likewise, the chunk's tail harvest
  bool frontier_swapped = false;   // odd number of advance_frontier() calls
  bool tails_swapped = false;      // odd number of advance_tails() calls
  bool in_use = false;             // leased by a compute_batch on this thread

  /// Makes the folded successor level (scratch_merged) the live frontier by
  /// trading the two buffers' storage.
  void advance_frontier() {
    frontier.swap(scratch_merged);
    frontier_swapped = !frontier_swapped;
  }

  /// Makes the merged tails (scratch_tails, scratch_chains) the live ones,
  /// likewise.
  void advance_tails() {
    tails.swap(scratch_tails);
    chains.swap(scratch_chains);
    tails_swapped = !tails_swapped;
  }

  /// Empties every buffer, keeping its capacity (the sorter's and the merge
  /// buffers hold nothing between calls). An odd number of swaps is
  /// undone first, so every call starts with the same storage in each role
  /// and a repeated solve fits in what the previous one left.
  void clear() {
    if (frontier_swapped) advance_frontier();
    if (tails_swapped) advance_tails();
    frontier.clear();
    scratch_raw.clear();
    scratch_merged.clear();
    tails.clear();
    scratch_tails.clear();
    chains.clear();
    scratch_chains.clear();
    tail_columns.clear();
    order.clear();
    offsets.clear();
    harvest.clear();
    harvest_order.clear();
    for (ChunkState& chunk : chunks) chunk.clear();
    chunk_error.clear();
    chunk_probability.clear();
  }

  std::size_t bytes() const {
    std::size_t total = frontier.bytes() + scratch_raw.bytes() + scratch_merged.bytes() +
                        tails.bytes() + scratch_tails.bytes() + chains.bytes() +
                        scratch_chains.bytes() + tail_columns.bytes() + order.bytes() +
                        sorter.bytes() + offsets.bytes() + harvest.bytes() +
                        harvest_order.bytes() + harvest_scratch.bytes() + harvest_runs.bytes() +
                        chunk_error.bytes() + chunk_probability.bytes();
    for (const ChunkState& chunk : chunks) total += chunk.harvest.bytes();
    return total;
  }
};

/// The calling thread's retained workspace, created on first use and
/// unmapped when the thread exits.
thread_local std::unique_ptr<Workspace> t_workspace;

/// Exclusive, cleared use of a workspace for one compute_batch call: the
/// thread's retained one, or — should a call ever nest inside another on the
/// same thread — a local one that lives only as long as the nested call.
class WorkspaceLease {
 public:
  WorkspaceLease() {
    if (!t_workspace) t_workspace = std::make_unique<Workspace>();
    if (t_workspace->in_use) {
      local_ = std::make_unique<Workspace>();
      workspace_ = local_.get();
    } else {
      workspace_ = t_workspace.get();
      workspace_->clear();
    }
    workspace_->in_use = true;
  }
  ~WorkspaceLease() { workspace_->in_use = false; }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  Workspace& get() { return *workspace_; }

 private:
  std::unique_ptr<Workspace> local_;
  Workspace* workspace_ = nullptr;
};

}  // namespace

SignatureClassUntilEngine::SignatureClassUntilEngine(const core::Mrm& transformed,
                                                     std::vector<bool> psi,
                                                     std::vector<bool> dead)
    : sig_(transformed, std::move(psi), std::move(dead)), absorbed_(sig_.num_states, false) {
  for (std::vector<SignatureTransition>& row : sig_.adjacency) {
    std::erase_if(row, [this](const SignatureTransition& edge) { return sig_.dead[edge.target]; });
  }
  const std::size_t last_class = sig_.distinct_state_rewards.size() - 1;
  for (core::StateIndex s = 0; s < sig_.num_states; ++s) {
    const std::vector<SignatureTransition>& edges = sig_.adjacency[s];
    absorbed_[s] = !sig_.dead[s] && sig_.reward_class[s] == last_class && edges.size() == 1 &&
                   edges.front().target == s && core::exactly_equal(edges.front().probability, 1.0) &&
                   core::exactly_zero(sig_.distinct_impulse_rewards[edges.front().impulse_class]);
  }
}

UntilUniformizationResult SignatureClassUntilEngine::compute(
    core::StateIndex start, double t, double r, const PathExplorerOptions& options) const {
  return compute_batch({start}, t, r, options).front();
}

std::vector<UntilUniformizationResult> SignatureClassUntilEngine::compute_batch(
    const std::vector<core::StateIndex>& starts, double t, double r,
    const PathExplorerOptions& options) const {
  obs::ScopedTimer timer("classdp.until");
  obs::counter_add("classdp.calls");
  obs::counter_add("classdp.starts", starts.size());
  const std::size_t n = sig_.num_states;
  for (core::StateIndex start : starts) {
    if (start >= n) {
      throw std::invalid_argument("SignatureClassUntilEngine::compute: start out of range");
    }
  }
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("SignatureClassUntilEngine::compute: t must be finite, >= 0");
  }
  if (!(r >= 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument("SignatureClassUntilEngine::compute: r must be finite, >= 0");
  }
  if (!(options.truncation_probability > 0.0) || !(options.truncation_probability < 1.0)) {
    throw std::invalid_argument(
        "SignatureClassUntilEngine::compute: truncation probability must be in (0,1)");
  }

  const std::size_t slots = starts.size();
  std::vector<UntilUniformizationResult> results(slots);
  if (slots == 0) return results;

  if (core::exactly_zero(t)) {
    // inf(I) = inf(J) = 0: the formula holds immediately iff start |= Psi.
    for (std::size_t i = 0; i < slots; ++i) {
      if (!sig_.dead[starts[i]] && sig_.psi[starts[i]]) results[i].probability = 1.0;
    }
    return results;
  }

  const double mean = sig_.lambda * t;
  const double w = options.truncation_probability;
  // Every level's Poisson mass and tail, for the sweep and the hand-off.
  const SharedPoissonTail poisson(mean, poisson_hard_cap(mean) + 2);

  const std::size_t num_k = sig_.distinct_state_rewards.size();
  const std::vector<double>& impulse_values = sig_.distinct_impulse_rewards;
  // Every class signature is (k counts ++ 2 words of the snapped impulse
  // total sum_i i_i j_i). The conditional probability of eq. (4.9) depends
  // on the impulse counts j only through the threshold r', a function of
  // that total alone, so impulse histories with equal totals share one
  // class from the level at which they meet. Harvest keys have the same
  // width: k counts ++ 2 words of canonical r'.
  const std::size_t sig_len = num_k + 2;
  const std::size_t last_class = num_k - 1;  // d = 0: the class absorbed rows gain
  RewardStructureContext context(sig_.distinct_state_rewards, sig_.distinct_impulse_rewards);
  const std::vector<double>& spans = context.coefficients();

  WorkspaceLease lease;
  Workspace& workspace = lease.get();
  Frontier& frontier = workspace.frontier;
  Frontier& scratch_raw = workspace.scratch_raw;
  Frontier& tails = workspace.tails;
  PageBuffer<TailChain>& chains = workspace.chains;
  PageBuffer<std::uint32_t>& order = workspace.order;

  std::size_t nodes = 0;
  std::size_t truncated = 0;
  std::size_t levels = 0;
  std::size_t frontier_peak = 0;
  std::size_t max_depth = 0;
  std::size_t ineffective_streak = 0;
  std::size_t handoff_level = 0;
  std::size_t classes_merged = 0;
  std::size_t tail_merges = 0;  // arrivals folded into a tail of their key
  std::vector<double> error(slots, 0.0);        // per-slot truncation error bound (eq. 4.6)
  std::vector<double> probability(slots, 0.0);  // per-slot harvest
  TailTally tail_tally;
  OmegaWork& omega_work = context.omega_work();

  // The prune rule, shared by the level sweep, the tails and the depth-first
  // continuation. A class row aggregating c prefixes is cut for a slot when
  // pmf * mass < w * c, i.e. when the *average* prefix weight falls below w
  // — the faithful aggregate of the per-path rule (4.4), so the exploration
  // volume matches the DFS engine's at equal w instead of keeping a class
  // alive as long as its total merged mass clears w. Cut mass moves into
  // `cut_error`, weighted by the Poisson tail Pr{ N >= level } (eq. 4.6),
  // exactly as in the per-path rule. Returns whether any slot is still live.
  const auto prune = [&](double* weights, double* counts, double pmf, double tail,
                         double* cut_error, std::size_t& cuts) {
    bool live = false;
    for (std::size_t i = 0; i < slots; ++i) {
      if (core::exactly_zero(weights[i])) continue;
      if (pmf * weights[i] < w * counts[i]) {
        ++cuts;
        cut_error[i] += weights[i] * tail;
        weights[i] = 0.0;
        counts[i] = 0.0;
        continue;
      }
      live = true;
    }
    return live;
  };

  // The harvest of a non-absorbed Psi-row, shared likewise: it appends its
  // level mass PoissonPmf(level) * weight under the key (k, canonical r'),
  // r' computed from the class's impulse total. Appending beats a per-level
  // map insert by a wide margin on deep runs; the fold at the end sums equal
  // keys.
  const auto harvest = [&](const std::uint32_t* sig_row, double pmf, const double* weights,
                           Harvest& into) {
    const std::size_t base = into.keys.size();
    into.keys.resize(base + sig_len);
    std::uint32_t* key = into.keys.data() + base;
    std::copy_n(sig_row, num_k, key);
    const double r_prime = context.threshold_for_total(load_double_bits(sig_row + num_k), t, r);
    store_double_bits(canonical_threshold(r_prime), key + num_k);
    for (std::size_t i = 0; i < slots; ++i) into.mass.push_back(pmf * weights[i]);
  };

  // An absorbed row (see class_explorer.hpp) enters its tail with a chain
  // fixed for good: no Psi, or one of the final fold's trivial cases (Omega
  // = 1 when no present class has d > r', 0 when none has d <= r'), or a
  // forward flow. Only the last class gains units, and it is lesser-side
  // exactly when r' >= 0, so the case found on entry holds at every later
  // level. `evaluators` is the calling thread's context.
  const auto make_chain = [&](core::StateIndex state, const std::uint32_t* sig_row,
                              RewardStructureContext& evaluators) {
    TailChain chain;
    chain.psi = sig_.psi[state];
    if (!chain.psi) return chain;
    const double r_prime = canonical_threshold(
        context.threshold_for_total(load_double_bits(sig_row + num_k), t, r));
    if (const std::optional<double> constant = trivial_omega(sig_row, spans, r_prime)) {
      chain.omega = *constant;
    } else {
      chain.evaluator = &evaluators.evaluator_for_threshold(r_prime);
    }
    return chain;
  };

  // One level of a tail's harvest: PoissonPmf(level) * weight * Omega(r', k)
  // per slot, added straight to `into` — the eq. (4.10) value of the row's
  // current k, one flow column past the previous level's.
  const auto harvest_tail = [&](TailChain& chain, const std::uint32_t* sig_row, double* column,
                                double pmf, const double* weights, double* into,
                                TailTally& tally, OmegaWork& work) {
    if (!chain.psi) return;
    if (chain.evaluator != nullptr) {
      const std::span<const std::uint32_t> k(sig_row, num_k);
      chain.omega = chain.started ? chain.evaluator->flow_extend(k, column, chain.omega, work)
                                  : chain.evaluator->flow_start(k, column, work);
    }
    if (!chain.started) {
      chain.started = true;
      ++(chain.evaluator != nullptr ? tally.evaluations : tally.trivial);
    }
    ++tally.stored;
    for (std::size_t i = 0; i < slots; ++i) into[i] += pmf * weights[i] * chain.omega;
  };

  // Moves the absorbed rows of a freshly folded frontier into the tails.
  // Both are sorted by (state, signature), so one merge pass finds the
  // arrivals whose key a tail already holds — they fold into it as the
  // level fold would have merged them, weights and counts summed slot-wise
  // — and keeps the tails sorted.
  // scratch_raw, consumed by the fold, holds the arrivals meanwhile.
  const auto absorb_arrivals = [&] {
    Frontier& arrivals = scratch_raw;
    arrivals.clear();
    std::size_t write = 0;
    for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
      if (absorbed_[frontier.states[idx]]) {
        arrivals.append_row(frontier, idx, sig_len, slots);
        continue;
      }
      if (write != idx) frontier.move_row(write, idx, sig_len, slots);
      ++write;
    }
    frontier.resize(write, sig_len, slots);
    if (arrivals.empty()) return;

    Frontier& merged = workspace.scratch_tails;
    PageBuffer<TailChain>& merged_chains = workspace.scratch_chains;
    merged.clear();
    merged_chains.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < tails.size() || j < arrivals.size()) {
      const int order_ij = i == tails.size()      ? 1
                           : j == arrivals.size() ? -1
                                                  : tails.compare_row(i, arrivals, j, sig_len);
      if (order_ij <= 0) {
        merged.append_row(tails, i, sig_len, slots);
        merged_chains.push_back(chains[i++]);
        if (order_ij < 0) continue;
        const std::size_t out = merged.size() - 1;
        for (std::size_t slot = 0; slot < slots; ++slot) {
          merged.weights[out * slots + slot] += arrivals.weights[j * slots + slot];
          merged.counts[out * slots + slot] = std::min(
              merged.counts[out * slots + slot] + arrivals.counts[j * slots + slot],
              kMaxPrefixCount);
        }
        ++classes_merged;
        ++tail_merges;
        ++j;
        continue;
      }
      const std::uint32_t* sig_row = arrivals.sigs.data() + j * sig_len;
      TailChain chain = make_chain(arrivals.states[j], sig_row, context);
      if (chain.evaluator != nullptr) {
        chain.column = workspace.tail_columns.size();
        workspace.tail_columns.resize(
            chain.column + chain.evaluator->flow_length(std::span(sig_row, num_k)));
      }
      merged.append_row(arrivals, j++, sig_len, slots);
      merged_chains.push_back(chain);
    }
    workspace.advance_tails();
  };

  // Level-0 frontier: one class per live start (k = 1_[rho(start)], impulse
  // total 0, weight 1 in the owning slot). Duplicate starts merge in the
  // fold.
  {
    std::size_t live = 0;
    for (std::size_t i = 0; i < slots; ++i) {
      if (!sig_.dead[starts[i]]) ++live;
    }
    scratch_raw.resize(live, sig_len, slots);
    std::fill(scratch_raw.sigs.begin(), scratch_raw.sigs.end(), 0u);
    std::fill(scratch_raw.weights.begin(), scratch_raw.weights.end(), 0.0);
    std::fill(scratch_raw.counts.begin(), scratch_raw.counts.end(), 0.0);
    std::size_t row = 0;
    for (std::size_t i = 0; i < slots; ++i) {
      if (sig_.dead[starts[i]]) continue;
      scratch_raw.states[row] = starts[i];
      ++scratch_raw.sigs[row * sig_len + sig_.reward_class[starts[i]]];
      scratch_raw.weights[row * slots + i] = 1.0;
      scratch_raw.counts[row * slots + i] = 1.0;
      ++row;
    }
  }
  classes_merged += fold(scratch_raw, frontier, sig_len, slots, n, workspace.sorter, order);
  absorb_arrivals();

  PageBuffer<std::size_t>& offsets = workspace.offsets;
  std::size_t raw_rows = 0;
  std::size_t folded_rows = 0;

  // The level sweep. Rows in absorbed states live in `tails`, outside the
  // expansion and the fold, but are still classes of the level: they are
  // pruned, counted as nodes, and count as one raw and one folded row each
  // (their self-loop successor), so the budget, the fold ratio and the
  // hand-off trigger see exactly the frontier they would see with the rows
  // left in it.
  for (std::size_t level = 0; !frontier.empty() || !tails.empty(); ++level) {
    ++levels;
    frontier_peak = std::max(frontier_peak, frontier.size() + tails.size());

    const double pmf = poisson.pmf(level);
    const double tail = poisson.tail(level);
    std::size_t write = 0;
    for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
      if (!prune(frontier.weights.data() + idx * slots, frontier.counts.data() + idx * slots, pmf,
                 tail, error.data(), truncated)) {
        continue;
      }
      if (write != idx) frontier.move_row(write, idx, sig_len, slots);
      ++write;
    }
    frontier.resize(write, sig_len, slots);
    write = 0;
    for (std::size_t idx = 0; idx < tails.size(); ++idx) {
      if (!prune(tails.weights.data() + idx * slots, tails.counts.data() + idx * slots, pmf, tail,
                 error.data(), truncated)) {
        continue;
      }
      if (write != idx) {
        tails.move_row(write, idx, sig_len, slots);
        chains[write] = chains[idx];
      }
      ++write;
    }
    tails.resize(write, sig_len, slots);
    chains.resize(write);
    if (frontier.empty() && tails.empty()) break;

    nodes += frontier.size() + tails.size();
    if (nodes > options.max_nodes) {
      throw NodeBudgetError(
          "SignatureClassUntilEngine: class budget exhausted; raise truncation probability w "
          "or use the discretization engine (Lambda*t too large for signature-class DP)");
    }
    max_depth = level;

    for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
      if (!sig_.psi[frontier.states[idx]]) continue;
      harvest(frontier.sigs.data() + idx * sig_len, pmf, frontier.weights.data() + idx * slots,
              workspace.harvest);
    }
    for (std::size_t idx = 0; idx < tails.size(); ++idx) {
      harvest_tail(chains[idx], tails.sigs.data() + idx * sig_len,
                   workspace.tail_columns.data() + chains[idx].column, pmf,
                   tails.weights.data() + idx * slots, probability.data(), tail_tally, omega_work);
    }

    // Expand one uniformization step. Every class writes its successors into
    // a precomputed disjoint slice of the raw successor arrays, so the
    // parallel loop's output is independent of the chunk layout; the
    // deterministic fold then merges colliding (state, signature) keys.
    offsets.assign(frontier.size() + 1, 0);
    for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
      offsets[idx + 1] = offsets[idx] + sig_.adjacency[frontier.states[idx]].size();
    }
    const std::size_t expanded = offsets.back();
    scratch_raw.resize(expanded, sig_len, slots);
    const unsigned threads =
        parallel::choose_thread_count(options.threads, expanded * (sig_len + slots));
    parallel::parallel_for(frontier.size(), threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t idx = begin; idx < end; ++idx) {
        std::size_t out = offsets[idx];
        for (const SignatureTransition& edge : sig_.adjacency[frontier.states[idx]]) {
          scratch_raw.states[out] = edge.target;
          std::uint32_t* child = scratch_raw.sigs.data() + out * sig_len;
          std::copy_n(frontier.sigs.data() + idx * sig_len, sig_len, child);
          ++child[sig_.reward_class[edge.target]];
          add_impulse(child + num_k, impulse_values[edge.impulse_class]);
          for (std::size_t i = 0; i < slots; ++i) {
            scratch_raw.weights[out * slots + i] =
                frontier.weights[idx * slots + i] * edge.probability;
          }
          std::copy_n(frontier.counts.data() + idx * slots, slots,
                      scratch_raw.counts.data() + out * slots);
          ++out;
        }
      }
    });
    classes_merged +=
        fold(scratch_raw, workspace.scratch_merged, sig_len, slots, n, workspace.sorter, order);
    workspace.advance_frontier();
    // A tail's successor is itself with one more last-class unit: its
    // weights and counts stay (the self-loop has probability 1), and the
    // advanced keys keep their relative order.
    const std::size_t total = expanded + tails.size();
    for (std::size_t idx = 0; idx < tails.size(); ++idx) ++tails.sigs[idx * sig_len + last_class];
    absorb_arrivals();
    // The fold ratio folded_rows / raw_rows is what the trigger below
    // watches (and how kAdaptMinRawRows / kAdaptStreak were calibrated).
    const std::size_t live = frontier.size() + tails.size();
    raw_rows += total;
    folded_rows += live;

    // Adaptive hand-off: ratio and row counts are thread-invariant, so the
    // trigger fires at the same level for every thread count. It stops
    // merging altogether and hands the frontier and the tails (level
    // `level + 1` rows) to the depth-first continuation below.
    if (live != 0) {
      const bool ineffective =
          total >= kAdaptMinRawRows && live * kAdaptRatioDen >= total * kAdaptRatioNum;
      ineffective_streak = ineffective ? ineffective_streak + 1 : 0;
      if (ineffective_streak >= kAdaptStreak) {
        handoff_level = level + 1;
        break;
      }
    }
  }

  // Depth-first continuation (the adaptive hand-off): when merging has
  // stopped paying, expanding the remaining frontier breadth-first only
  // buys fold overhead on rows that will not collide. Finish each
  // surviving class with a plain DFS — the same prune and harvest routines,
  // budget and error semantics as the level sweep (the class's merged prefix
  // count carried unchanged down the path) — but with no further merge
  // attempts; a path that enters an absorbed state finishes as a tail. The
  // whole continuation runs once for the batch (class rows carry all
  // slots), which is what lets the hybrid beat a per-start DFS engine even
  // when merging has gone stale.
  //
  // Root subtrees are independent, so the continuation fans out over a FIXED
  // number of contiguous root chunks (independent of the worker count) —
  // the frontier rows, then the tails. Each chunk collects its own harvest
  // rows, tail harvest, error partials and counters; afterwards chunks are
  // combined serially in chunk order. Chunk boundaries, per-chunk work and
  // the combination order are all thread-invariant, so results stay bitwise
  // identical at every thread count.
  const bool handoff = !frontier.empty() || !tails.empty();  // the sweep stops on live rows only to hand off
  if (handoff) {
    const std::size_t roots = frontier.size() + tails.size();
    const std::size_t chunk_count = std::min(kHandoffChunks, roots);
    const auto chunks = std::span(workspace.chunks).first(chunk_count);
    workspace.chunk_error.assign(chunk_count * slots, 0.0);
    workspace.chunk_probability.assign(chunk_count * slots, 0.0);
    const std::size_t base_nodes = nodes;

    const auto run_chunk = [&](std::size_t chunk) {
      ChunkState& cs = chunks[chunk];
      double* const chunk_error = workspace.chunk_error.data() + chunk * slots;
      double* const chunk_probability = workspace.chunk_probability.data() + chunk * slots;
      const std::size_t row_begin = chunk * roots / chunk_count;
      const std::size_t row_end = (chunk + 1) * roots / chunk_count;
      // The chunk's own evaluator lookups: a context serves one thread.
      RewardStructureContext chunk_context(sig_.distinct_state_rewards,
                                           sig_.distinct_impulse_rewards);

      // One frame per path prefix under expansion. The signature is kept in
      // a single shared row, updated on push and restored on pop; weights
      // and counts get one stack row per depth (children inherit the
      // parent's pruned row, so a slot cut at depth d contributes nothing
      // below d, exactly as a zeroed slot in the sweep's frontier).
      struct DfsFrame {
        core::StateIndex state;
        std::size_t edge_index;
        std::uint32_t k_class;
        std::uint32_t parent_total[2];  // impulse-total words before this step
      };
      std::vector<DfsFrame> frames;
      std::vector<std::uint32_t> sig(sig_len);
      std::vector<std::uint32_t> tail_sig(sig_len);
      std::vector<double> tail_column;
      std::vector<double> w_stack(slots);
      std::vector<double> c_stack(slots);

      // A path in an absorbed state from `level` on: the sweep's tail
      // treatment, one level per iteration, until every slot is cut.
      const auto run_tail = [&](std::size_t level, core::StateIndex state, double* wrow,
                                double* crow) {
        tail_sig = sig;
        TailChain chain = make_chain(state, tail_sig.data(), chunk_context);
        if (chain.evaluator != nullptr) {
          tail_column.resize(chain.evaluator->flow_length(std::span(tail_sig.data(), num_k)));
        }
        for (;; ++level) {
          const double pmf = poisson.pmf(level);
          if (!prune(wrow, crow, pmf, poisson.tail(level), chunk_error, cs.truncated)) {
            return;
          }
          ++cs.nodes;
          if (base_nodes + cs.nodes > options.max_nodes) {
            cs.overflow = true;
            return;
          }
          cs.max_depth = std::max(cs.max_depth, level);
          harvest_tail(chain, tail_sig.data(), tail_column.data(), pmf, wrow, chunk_probability,
                       cs.tally, cs.work);
          ++tail_sig[last_class];
        }
      };
      const auto enter_node = [&](std::size_t frame_depth, core::StateIndex state) {
        const std::size_t level = handoff_level + frame_depth;
        double* wrow = w_stack.data() + frame_depth * slots;
        double* crow = c_stack.data() + frame_depth * slots;
        if (absorbed_[state]) {
          run_tail(level, state, wrow, crow);
          return false;  // the tail has run the path's whole future
        }
        const double pmf = poisson.pmf(level);
        if (!prune(wrow, crow, pmf, poisson.tail(level), chunk_error, cs.truncated)) {
          return false;
        }
        ++cs.nodes;
        if (base_nodes + cs.nodes > options.max_nodes) {
          // The budget is shared across the batch; flag and unwind, the
          // combining pass below throws for the whole run.
          cs.overflow = true;
          return false;
        }
        cs.max_depth = std::max(cs.max_depth, level);
        if (sig_.psi[state]) harvest(sig.data(), pmf, wrow, cs.harvest);
        return true;
      };
      const auto undo_sig = [&](const DfsFrame& frame) {
        --sig[frame.k_class];
        sig[num_k] = frame.parent_total[0];
        sig[num_k + 1] = frame.parent_total[1];
      };

      for (std::size_t root = row_begin; root < row_end && !cs.overflow; ++root) {
        const bool in_tails = root >= frontier.size();
        const Frontier& rows = in_tails ? tails : frontier;
        const std::size_t row = in_tails ? root - frontier.size() : root;
        std::copy_n(rows.sigs.data() + row * sig_len, sig_len, sig.begin());
        std::copy_n(rows.weights.data() + row * slots, slots, w_stack.begin());
        std::copy_n(rows.counts.data() + row * slots, slots, c_stack.begin());
        if (!enter_node(0, rows.states[row])) continue;
        frames.clear();
        frames.push_back({rows.states[row], 0, 0, {0, 0}});
        while (!frames.empty() && !cs.overflow) {
          const std::size_t depth = frames.size() - 1;
          const std::vector<SignatureTransition>& edges = sig_.adjacency[frames.back().state];
          if (frames.back().edge_index >= edges.size()) {
            if (depth > 0) undo_sig(frames.back());
            frames.pop_back();
            continue;
          }
          const SignatureTransition& edge = edges[frames.back().edge_index++];
          const std::size_t child_depth = depth + 1;
          if (w_stack.size() < (child_depth + 1) * slots) {
            w_stack.resize((child_depth + 1) * slots);
            c_stack.resize((child_depth + 1) * slots);
          }
          core::simd::scale(w_stack.data() + child_depth * slots,
                            w_stack.data() + depth * slots, slots, edge.probability);
          std::copy_n(c_stack.begin() + static_cast<std::ptrdiff_t>(depth * slots), slots,
                      c_stack.begin() + static_cast<std::ptrdiff_t>(child_depth * slots));
          const DfsFrame child{edge.target, 0,
                               static_cast<std::uint32_t>(sig_.reward_class[edge.target]),
                               {sig[num_k], sig[num_k + 1]}};
          ++sig[child.k_class];
          add_impulse(sig.data() + num_k, impulse_values[edge.impulse_class]);
          if (enter_node(child_depth, edge.target)) {
            frames.push_back(child);
          } else {
            undo_sig(child);
          }
        }
      }
    };

    const unsigned dfs_threads =
        parallel::choose_thread_count(options.threads, roots * slots * 64);
    parallel::parallel_for(chunk_count, dfs_threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t chunk = begin; chunk < end; ++chunk) run_chunk(chunk);
    });

    bool overflow = false;
    for (const ChunkState& cs : chunks) {
      nodes += cs.nodes;
      truncated += cs.truncated;
      max_depth = std::max(max_depth, cs.max_depth);
      overflow = overflow || cs.overflow;
    }
    if (overflow || nodes > options.max_nodes) {
      throw NodeBudgetError(
          "SignatureClassUntilEngine: class budget exhausted; raise truncation probability w "
          "or use the discretization engine (Lambda*t too large for signature-class DP)");
    }
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) {
      const double* chunk_error = workspace.chunk_error.data() + chunk * slots;
      const double* chunk_probability = workspace.chunk_probability.data() + chunk * slots;
      for (std::size_t i = 0; i < slots; ++i) {
        error[i] += chunk_error[i];
        probability[i] += chunk_probability[i];
      }
      tail_tally.add(chunks[chunk].tally);
      omega_work.add(chunks[chunk].work);
    }
    obs::counter_add("classdp.handoff_roots", roots);
    obs::counter_add("classdp.handoff_nodes", nodes - base_nodes);
    obs::gauge_max("classdp.handoff_level", static_cast<double>(handoff_level));
  }

  // Fold the harvest rows of the non-absorbed Psi-rows where they lie — the
  // sweep's, then each hand-off chunk's in chunk order (chunks this call did
  // not use are empty, the workspace being cleared on entry): order
  // references to them stably by key with merge_runs and sum equal keys
  // into the group's first row, so contributions for one key are added in
  // append (= level, then chunk) order. The sweep appends a level's rows in
  // (state, k, impulse total) order and r' falls as the total grows, so the
  // rows arrive as short ascending and strictly descending runs. One group
  // per distinct (k, canonical r') is exactly the granularity at which
  // eq. (4.9) differs: the conditional probability depends on j only
  // through r', so impulse histories with equal totals (e.g. one voter
  // repair vs two module repairs when the impulses are 2 and 1) share a
  // single Omega evaluation for the whole batch. The order is the stable
  // one over plain word rows, hence deterministic. (The tails harvested
  // into `probability` as they ran.)
  PageBuffer<HarvestRow>& harvest_order = workspace.harvest_order;
  const auto add_rows = [&](Harvest& rows) {
    for (std::size_t row = 0; row * slots < rows.mass.size(); ++row) {
      harvest_order.push_back({rows.keys.data() + row * sig_len, rows.mass.data() + row * slots});
    }
  };
  add_rows(workspace.harvest);
  for (ChunkState& chunk : workspace.chunks) add_rows(chunk.harvest);
  merge_runs(harvest_order.begin(), harvest_order.end(), workspace.harvest_scratch,
             workspace.harvest_runs, [&](const HarvestRow& a, const HarvestRow& b) {
               return std::lexicographical_compare(a.key, a.key + sig_len, b.key,
                                                   b.key + sig_len);
             });
  // Trivial groups reproduce the Omega recursion's base cases bitwise
  // without building or querying an evaluator; only non-trivial groups pay
  // for an Omega evaluation.
  const std::size_t stored = harvest_order.size();
  std::size_t signature_classes = 0;
  std::size_t conditional_evals = 0;
  std::size_t trivial = 0;
  SpacingCounts k_counts(num_k);
  for (std::size_t i = 0; i < stored; ++signature_classes) {
    const HarvestRow& lead = harvest_order[i];
    std::size_t next_row = i + 1;
    for (; next_row < stored &&
           std::equal(lead.key, lead.key + sig_len, harvest_order[next_row].key);
         ++next_row) {
      const double* other = harvest_order[next_row].mass;
      for (std::size_t slot = 0; slot < slots; ++slot) lead.mass[slot] += other[slot];
    }
    i = next_row;
    const double r_prime = load_double_bits(lead.key + num_k);
    double cond = 0.0;
    if (const std::optional<double> base_case = trivial_omega(lead.key, spans, r_prime)) {
      ++trivial;
      cond = *base_case;
      if (core::exactly_zero(cond)) continue;  // the group contributes nothing
    } else {
      k_counts.assign(lead.key, lead.key + num_k);
      cond = context.conditional_probability_for_threshold(k_counts, r_prime);
      ++conditional_evals;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      probability[slot] += lead.mass[slot] * cond;
    }
  }

  for (std::size_t i = 0; i < slots; ++i) {
    UntilUniformizationResult& result = results[i];
    result.probability = probability[i];
    result.error_bound = error[i];
    result.paths_stored = stored + tail_tally.stored;
    result.paths_truncated = truncated;
    result.signature_classes = signature_classes + tail_tally.evaluations + tail_tally.trivial;
    result.nodes_expanded = nodes;
    result.max_depth = max_depth;
  }

  omega_work.record();
  obs::counter_add("classdp.levels", levels);
  obs::counter_add("classdp.nodes_expanded", nodes);
  obs::counter_add("classdp.classes_merged", classes_merged);
  obs::counter_add("classdp.tail_merges", tail_merges);
  obs::counter_add("classdp.conditional_evals", conditional_evals + tail_tally.evaluations);
  obs::counter_add("classdp.trivial_folds", trivial + tail_tally.trivial);
  obs::counter_add("classdp.hybrid_handoffs", handoff ? 1 : 0);
  obs::counter_add("classdp.raw_rows", raw_rows);
  obs::counter_add("classdp.folded_rows", folded_rows);
  obs::gauge_max("classdp.frontier_peak", static_cast<double>(frontier_peak));
  obs::gauge_max("classdp.workspace_bytes", static_cast<double>(workspace.bytes()));
  return results;
}

}  // namespace csrlmrm::numeric
