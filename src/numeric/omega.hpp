// The Omega recursion of Diniz, de Souza e Silva & Gail [Din02]
// (Algorithm 4.8 of the thesis): the distribution of a linear combination of
// uniform order statistics, written as a weighted sum of the spacings
// Y_1..Y_{n+1} of n iid U(0,1) points,
//
//   Omega(r, k) = Pr{ sum_l c_l * (sum of k_l spacings) <= r }.
//
// The recursion
//   Omega(r,k) = (c_i - r)/(c_i - c_j) * Omega(r, k - 1_j)
//              + (r - c_j)/(c_i - c_j) * Omega(r, k - 1_i)
// with i drawn from G = {l : c_l > r}, j from L = {l : c_l <= r}, and base
// cases Omega = 1 when ||k_G|| = 0 and Omega = 0 when ||k_L|| = 0, only ever
// multiplies numbers in [0,1] — this is the numerical-stability property the
// thesis adopts it for, replacing the unstable Weisberg/Matsunawa methods.
//
// Because the pivots i and j are always the first nonzero class on each
// side, every reachable sub-problem is determined by the pair (g, l) =
// (decrements taken from G so far, decrements taken from L so far): a
// ||k_G|| x ||k_L|| lattice over the two staircases of units in
// class-index order. The evaluator runs the recursion as a forward flow
// over that lattice: start one unit of flow at (0, 0) and let every
// interior cell pass its flow on with the recursion's factors —
// A = (c_i - r)/(c_i - c_j) to (g, l+1), B = (r - c_j)/(c_i - c_j) to
// (g+1, l). The flow F(g, l) reaching a cell is the sum over lattice paths
// of their factor products, and Omega is the flow that leaves across the
// greater-side boundary:
//
//   Omega(r, k) = sum_{l < ||k_L||} F(||k_G|| - 1, l) * B(||k_G|| - 1, l).
//
// Computed column by column (one column per lesser unit, in staircase
// order), column l needs only column l - 1 and the pivots of its own
// lesser unit, so a value costs ||k_G|| * ||k_L|| cells in one column of
// ||k_G|| doubles the caller owns. Every factor and product lies in [0, 1],
// so the flow keeps the recursion's stability. Appending one unit of the
// last class — the zero coefficient d_{K+1} of eq. (4.10), which sits at
// the end of the lesser staircase — adds exactly one column, and Omega
// grows by that column's outflow. An absorbed class of the class-DP engine
// gains such a unit at every Poisson epoch (class_explorer.hpp), so its
// Omega runs as a chain: one flow_start, then one O(||k_G||) flow_extend
// per level. A chain's value is a pure function of the counts: starting
// afresh at k + m * 1_last gives bitwise the value of m extensions from k.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace csrlmrm::numeric {

/// Count vector type: counts_[l] spacings carry coefficient c_l.
using SpacingCounts = std::vector<std::uint32_t>;

/// Omega work done by one caller, kept in plain counters and recorded to
/// the stats registry once per engine run instead of once per evaluation
/// (a registry update is a map lookup when statistics are on):
/// "omega.evaluations" (flow_start() calls: full Omega values),
/// "omega.dp_cells" (lattice cells computed) and "omega.chain_steps"
/// (flow_extend() calls).
struct OmegaWork {
  std::uint64_t evaluations = 0;
  std::uint64_t cells = 0;
  std::uint64_t chain_steps = 0;

  void add(const OmegaWork& other) {
    evaluations += other.evaluations;
    cells += other.cells;
    chain_steps += other.chain_steps;
  }
  /// Adds the non-zero counts to the stats registry and zeroes them.
  void record();
};

/// Forward-flow evaluator for one fixed threshold r and coefficient vector
/// c. Stateless after construction: its members are const, and one
/// instance serves concurrent callers as long as each passes its own column
/// and OmegaWork.
class OmegaEvaluator {
 public:
  /// `coefficients` are the distinct c_l (any order, need not be sorted);
  /// `r` is the threshold. Throws std::invalid_argument if coefficients are
  /// empty, non-finite, or contain duplicates.
  OmegaEvaluator(std::vector<double> coefficients, double r);

  /// The flow's column length for `counts`: its greater-side unit count
  /// ||k_G||. counts must have one entry per coefficient.
  std::size_t flow_length(std::span<const std::uint32_t> counts) const;

  /// Omega(r, counts), counts with one entry per coefficient. With all
  /// counts zero the sum is empty and the result is 1 if r >= 0 else 0.
  /// `column` must hold flow_length(counts) doubles; it receives the flow's
  /// last column, which flow_extend() continues. Costs ||k_G|| * ||k_L||
  /// cells and allocates nothing.
  double flow_start(std::span<const std::uint32_t> counts, double* column,
                    OmegaWork& work) const;

  /// Omega(r, counts), where `counts` has exactly one more unit of the last
  /// coefficient than the counts of the flow that produced `column` and
  /// `omega` (flow_start or a previous flow_extend), which had at least one
  /// already; advances `column` in place. The last coefficient must not
  /// exceed r (its units are lesser-side, appended at the end of the
  /// staircase). Costs ||k_G|| cells; bitwise equal to flow_start(counts).
  double flow_extend(std::span<const std::uint32_t> counts, double* column, double omega,
                     OmegaWork& work) const;

  double threshold() const { return r_; }
  const std::vector<double>& coefficients() const { return c_; }

 private:
  /// One forward-flow column: F(., l) from F(., l - 1) in `column`, for a
  /// lesser unit of coefficient `cj` whose predecessor had `cj_prev`;
  /// `inflow` enters at (0, l) (1 for the first column, whose `column` is
  /// zero). Returns the column's outflow F(tg - 1, l) * B(tg - 1, l).
  double flow_column(std::span<const std::uint32_t> counts, double* column, double cj_prev,
                     double cj, double inflow) const;

  std::vector<double> c_;
  double r_;
  std::vector<bool> greater_;  // greater_[l] <=> c_l > r
};

/// One-shot convenience wrapper around OmegaEvaluator::flow_start; records
/// its work to the stats registry.
double omega(double r, const std::vector<double>& coefficients, const SpacingCounts& counts);

}  // namespace csrlmrm::numeric
