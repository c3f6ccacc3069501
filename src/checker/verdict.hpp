// Error-aware results: rigorous value intervals and three-valued verdicts.
//
// Every numerical method behind the S/P/R operators is approximate in a
// *quantified* way — truncating the Poisson window loses at most epsilon of
// the Poisson mass (eq. 3.5), the DFPG explorer loses at most the accumulated
// truncated-path mass (eq. 4.6), and the discretization scheme converges
// with rate O(d) (section 4.5). Collapsing such a value to a bare double
// and comparing it against the threshold of P(>= p)[...] silently flips
// verdicts between engines (or w/d settings) whenever the true probability
// sits within the error band of p. The fix, following the robust-checking
// literature (Termine et al., Hahn & Hartmanns), is to propagate the value
// as an interval [lower, upper] guaranteed to contain the true value and to
// answer threshold comparisons three-valued:
//
//   kSat      every value in the interval satisfies the comparison
//   kUnsat    no value in the interval satisfies it
//   kUnknown  the interval straddles the threshold — the configured
//             accuracy cannot decide the formula
//
// The checker propagates kUnknown through the boolean connectives by
// Kleene's strong three-valued logic, and mrmcheck surfaces UNKNOWN states
// (exit status 3 under --strict).
#pragma once

#include <string>

#include "logic/ast.hpp"

namespace csrlmrm::checker {

/// A closed interval [lower, upper] guaranteed to contain the true value of
/// a probability or expected-reward query. For probabilities the factories
/// clamp to [0, 1]; reward-valued intervals use the raw constructor.
struct ProbabilityBound {
  double lower = 0.0;
  double upper = 0.0;

  /// The exact value v as the degenerate interval [v, v].
  static ProbabilityBound point(double value) { return {value, value}; }

  /// A probability computed as `p` with up to `below` mass possibly missing
  /// underneath and `above` possibly missing on top, clamped to [0, 1].
  /// Truncating engines (class-DP, DFPG) only *lose* mass, so they pass
  /// below = 0; the transient series passes the rounding of its Poisson
  /// masses as below, and two-sided schemes (discretization) pass both.
  static ProbabilityBound from_point_error(double p, double below, double above);

  double width() const { return upper - lower; }
  bool contains(double value) const { return lower <= value && value <= upper; }
  bool overlaps(const ProbabilityBound& other) const {
    return lower <= other.upper && other.lower <= upper;
  }
  /// "[lo, hi]", each end in shortest round-trip digits.
  std::string to_string() const;

  friend bool operator==(const ProbabilityBound&, const ProbabilityBound&) = default;
};

/// Three-valued answer of one threshold comparison.
enum class Verdict { kUnsat, kSat, kUnknown };

/// Compares a value interval against `op bound` three-valued: kSat/kUnsat
/// when every/no value in the interval satisfies the comparison, kUnknown
/// when the interval straddles the threshold or either endpoint is NaN.
/// Infinite endpoints compare as ordinary values (an expected reward to
/// reach an unreachable set is +infinity).
Verdict compare_bound(const ProbabilityBound& value, logic::Comparison op, double bound);

}  // namespace csrlmrm::checker
