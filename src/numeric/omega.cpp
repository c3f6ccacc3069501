#include "numeric/omega.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

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
  // the column). The factors are constant along each greater class's run
  // of units.
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
  const OmegaEvaluator evaluator(coefficients, r);
  std::vector<double> column(evaluator.flow_length(counts));
  OmegaWork work;
  const double value = evaluator.flow_start(counts, column.data(), work);
  work.record();
  return value;
}

}  // namespace csrlmrm::numeric
