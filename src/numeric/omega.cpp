#include "numeric/omega.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/simd.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::numeric {

OmegaEvaluator::OmegaEvaluator(std::vector<double> coefficients, double r)
    : c_(std::move(coefficients)), r_(r) {
  if (c_.empty()) throw std::invalid_argument("OmegaEvaluator: empty coefficient vector");
  for (double c : c_) {
    if (!std::isfinite(c)) throw std::invalid_argument("OmegaEvaluator: non-finite coefficient");
  }
  if (!std::isfinite(r_)) throw std::invalid_argument("OmegaEvaluator: non-finite threshold");
  std::vector<double> sorted = c_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("OmegaEvaluator: coefficients must be distinct");
  }
  greater_.resize(c_.size());
  for (std::size_t l = 0; l < c_.size(); ++l) greater_[l] = c_[l] > r_;
}

double OmegaEvaluator::evaluate(const SpacingCounts& counts, OmegaScratch& scratch) const {
  if (counts.size() != c_.size()) {
    throw std::invalid_argument("OmegaEvaluator::evaluate: counts size mismatch");
  }
  ++scratch.work.evaluations;
  // Side totals. tg/tl are the lattice dimensions: state (g, l) of the
  // recursion has taken g of the tg greater-side decrements and l of the tl
  // lesser-side ones.
  std::uint64_t tg = 0;
  std::uint64_t tl = 0;
  for (std::size_t l = 0; l < c_.size(); ++l) {
    if (counts[l] == 0) continue;
    if (greater_[l]) {
      tg += counts[l];
    } else {
      tl += counts[l];
    }
  }
  if (tg == 0 && tl == 0) return r_ >= 0.0 ? 1.0 : 0.0;  // empty sum is identically 0
  if (tg == 0) return 1.0;                               // ||k_G|| = 0 base case
  if (tl == 0) return 0.0;                               // ||k_L|| = 0 base case

  // Pivot staircases. The recursion always decrements the FIRST nonzero
  // class on each side, so after g greater-side decrements the pivot c_i is
  // the class owning the (g+1)-th greater unit in class-index order:
  // cig[g]. The lesser staircase is stored reversed (cjl_rev[i] =
  // cjl[tl-1-i]) so that along an anti-diagonal d the per-cell pivot
  // cjl[d - g] reads as the contiguous slice cjl_rev[(tl-1-d) + g].
  std::vector<double>& cig = scratch.greater_pivots;
  std::vector<double>& cjl_rev = scratch.lesser_pivots_rev;
  cig.resize(static_cast<std::size_t>(tg));
  cjl_rev.resize(static_cast<std::size_t>(tl));
  {
    std::size_t gpos = 0;
    std::size_t lpos = static_cast<std::size_t>(tl);
    for (std::size_t l = 0; l < c_.size(); ++l) {
      for (std::uint32_t u = 0; u < counts[l]; ++u) {
        if (greater_[l]) {
          cig[gpos++] = c_[l];
        } else {
          cjl_rev[--lpos] = c_[l];
        }
      }
    }
  }

  // Anti-diagonal wavefront, in place: after processing diagonal d, w[g]
  // holds the cell value V(g, d - g). Boundary cells: V(tg, l) = 1 for every
  // l (the greater side emptied first — w[tg] is written once and never
  // touched again) and V(g, tl) = 0 for g < tg. Interior cells use the
  // recursion with without_lesser = V(g, l+1) = old w[g] and
  // without_greater = V(g+1, l) = w[g+1]; sweeping g upward reads w[g+1]
  // before it is overwritten.
  const std::size_t stg = static_cast<std::size_t>(tg);
  const std::size_t stl = static_cast<std::size_t>(tl);
  std::vector<double>& w = scratch.wavefront;
  w.assign(stg + 1, 0.0);
  w[stg] = 1.0;
  std::uint64_t cells = 0;
  const core::simd::DoubleVec vr = core::simd::DoubleVec::broadcast(r_);
  for (std::size_t d = stg + stl; d-- > 0;) {
    const std::size_t gmin = d > stl ? d - stl : 0;
    std::size_t lo = gmin;
    if (d >= stl) {  // cell (d - tl, tl) sits on the exhausted-lesser edge
      if (gmin < stg) w[gmin] = 0.0;
      lo = gmin + 1;
    }
    const std::size_t hi = std::min(d, stg > 0 ? stg - 1 : 0) + 1;  // exclusive; g == tg stays 1
    if (lo >= hi) continue;
    cells += hi - lo;
    // cjl index for cell g on diagonal d is (tl-1-d) + g; signed because the
    // offset is negative for deep diagonals even though every accessed index
    // is in range.
    const std::ptrdiff_t cj_off =
        static_cast<std::ptrdiff_t>(stl) - 1 - static_cast<std::ptrdiff_t>(d);
    std::size_t g = lo;
    for (; g + core::simd::DoubleVec::kLanes <= hi; g += core::simd::DoubleVec::kLanes) {
      using core::simd::DoubleVec;
      const DoubleVec ci = DoubleVec::load(cig.data() + g);
      const DoubleVec cj =
          DoubleVec::load(cjl_rev.data() + (cj_off + static_cast<std::ptrdiff_t>(g)));
      const DoubleVec denom = ci - cj;
      const DoubleVec value = (ci - vr) / denom * DoubleVec::load(w.data() + g) +
                              (vr - cj) / denom * DoubleVec::load(w.data() + g + 1);
      value.store(w.data() + g);
    }
    for (; g < hi; ++g) {
      const double ci = cig[g];
      const double cj = cjl_rev[static_cast<std::size_t>(cj_off + static_cast<std::ptrdiff_t>(g))];
      const double denom = ci - cj;  // > 0 since ci > r >= cj
      w[g] = ((ci - r_) / denom) * w[g] + ((r_ - cj) / denom) * w[g + 1];
    }
  }
  scratch.work.cells += cells;
  return w[0];
}

std::size_t OmegaEvaluator::flow_length(std::span<const std::uint32_t> counts) const {
  if (counts.size() != c_.size()) {
    throw std::invalid_argument("OmegaEvaluator::flow_length: counts size mismatch");
  }
  std::size_t tg = 0;
  for (std::size_t l = 0; l < c_.size(); ++l) {
    if (greater_[l]) tg += counts[l];
  }
  return tg;
}

double OmegaEvaluator::flow_column(std::span<const std::uint32_t> counts, double* column,
                                   double cj_prev, double cj, double inflow) const {
  // Cell (g, l) receives F(g, l-1) * A(g, l-1) from its left neighbour (the
  // old column[g]) and F(g-1, l) * B(g-1, l) from below (`flow`, carried up
  // the column). The factors are those of evaluate()'s cells, constant
  // along each greater class's run of units.
  double flow = inflow;
  std::size_t g = 0;
  for (std::size_t l = 0; l < c_.size(); ++l) {
    if (!greater_[l] || counts[l] == 0) continue;
    const double ci = c_[l];
    const double along_lesser = (ci - r_) / (ci - cj_prev);
    const double along_greater = (r_ - cj) / (ci - cj);
    for (std::uint32_t u = 0; u < counts[l]; ++u, ++g) {
      const double cell = column[g] * along_lesser + flow;
      column[g] = cell;
      flow = cell * along_greater;
    }
  }
  return flow;
}

double OmegaEvaluator::flow_start(std::span<const std::uint32_t> counts, double* column,
                                  OmegaWork& work) const {
  const std::size_t tg = flow_length(counts);
  std::size_t tl = 0;
  for (std::size_t l = 0; l < c_.size(); ++l) {
    if (!greater_[l]) tl += counts[l];
  }
  ++work.evaluations;
  if (tg == 0 && tl == 0) return r_ >= 0.0 ? 1.0 : 0.0;
  if (tg == 0) return 1.0;
  if (tl == 0) return 0.0;
  std::fill_n(column, tg, 0.0);
  // The first column starts from a zero column and the unit of flow
  // entering at (0, 0); any finite A serves it, so it reuses its own pivot.
  double omega = 0.0;
  double inflow = 1.0;
  double cj_prev = 0.0;
  for (std::size_t l = 0; l < c_.size(); ++l) {
    if (greater_[l]) continue;
    for (std::uint32_t u = 0; u < counts[l]; ++u) {
      omega += flow_column(counts, column, inflow > 0.0 ? c_[l] : cj_prev, c_[l], inflow);
      inflow = 0.0;
      cj_prev = c_[l];
    }
  }
  work.cells += static_cast<std::uint64_t>(tg) * tl;
  return omega;
}

double OmegaEvaluator::flow_extend(std::span<const std::uint32_t> counts, double* column,
                                   double omega, OmegaWork& work) const {
  if (counts.size() != c_.size() || counts.back() < 2 || greater_.back()) {
    throw std::invalid_argument(
        "OmegaEvaluator::flow_extend: needs a lesser-side last coefficient the flow has a unit of");
  }
  const std::size_t tg = flow_length(counts);
  ++work.chain_steps;
  if (tg == 0) return 1.0;  // ||k_G|| = 0 base case, as flow_start
  work.cells += tg;
  // The new unit and its predecessor in the staircase both carry the last
  // coefficient.
  return omega + flow_column(counts, column, c_.back(), c_.back(), 0.0);
}

void OmegaWork::record() {
  if (evaluations > 0) obs::counter_add("omega.evaluations", evaluations);
  if (cells > 0) obs::counter_add("omega.dp_cells", cells);
  if (chain_steps > 0) obs::counter_add("omega.chain_steps", chain_steps);
  *this = OmegaWork{};
}

double omega(double r, const std::vector<double>& coefficients, const SpacingCounts& counts) {
  OmegaScratch scratch;
  const double value = OmegaEvaluator(coefficients, r).evaluate(counts, scratch);
  scratch.work.record();
  return value;
}

}  // namespace csrlmrm::numeric
