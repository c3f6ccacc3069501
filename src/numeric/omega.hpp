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
// side, every reachable sub-problem is determined by the pair
// (g, l) = (decrements taken from G so far, decrements taken from L so far):
// the counts left on each side are the original staircase with its first g
// (resp. l) units removed in class-index order. The evaluator therefore
// solves the recursion as a dense wavefront DP over the (||k_G||+1) x
// (||k_L||+1) lattice — one anti-diagonal at a time, in place, with the
// inner sweep vectorized via core/simd.hpp — instead of hashing count
// vectors into a memo table. Cell values are bit-identical to the memoized
// recursion (same expression, same operands, each cell computed once); only
// the traversal order changed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csrlmrm::numeric {

/// Count vector type: counts_[l] spacings carry coefficient c_l.
using SpacingCounts = std::vector<std::uint32_t>;

/// Working storage of OmegaEvaluator::evaluate: the two pivot staircases
/// and the wavefront row. The caller owns it and passes it to every call, so
/// a scratch reused across calls grows to the largest count shape it has
/// seen and then stops allocating. Its contents between calls carry no
/// meaning: a reused scratch gives bitwise the value a fresh one gives. One
/// scratch must not be used by two calls at once.
struct OmegaScratch {
  std::vector<double> greater_pivots;     // c_i of the (g+1)-th greater-side unit
  std::vector<double> lesser_pivots_rev;  // lesser-side staircase, reversed
  std::vector<double> wavefront;          // one anti-diagonal of the lattice
};

/// Wavefront-DP evaluator for one fixed threshold r and coefficient vector
/// c. Stateless after construction: evaluate() is const, and one shared
/// instance serves concurrent callers as long as each passes its own
/// OmegaScratch.
class OmegaEvaluator {
 public:
  /// `coefficients` are the distinct c_l (any order, need not be sorted);
  /// `r` is the threshold. Throws std::invalid_argument if coefficients are
  /// empty, non-finite, or contain duplicates.
  OmegaEvaluator(std::vector<double> coefficients, double r);

  /// Omega(r, counts). counts must have one entry per coefficient.
  /// With all counts zero the sum is empty and the result is 1 if r >= 0
  /// else 0. Costs O(||k_G|| * ||k_L||) cell updates and O(||k||) scratch
  /// memory; allocates only when `scratch` is smaller than this shape needs.
  double evaluate(const SpacingCounts& counts, OmegaScratch& scratch) const;

  double threshold() const { return r_; }
  const std::vector<double>& coefficients() const { return c_; }

 private:
  std::vector<double> c_;
  double r_;
  std::vector<bool> greater_;  // greater_[l] <=> c_l > r
};

/// One-shot convenience wrapper around OmegaEvaluator.
double omega(double r, const std::vector<double>& coefficients, const SpacingCounts& counts);

}  // namespace csrlmrm::numeric
