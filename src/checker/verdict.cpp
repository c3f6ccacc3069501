#include "checker/verdict.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace csrlmrm::checker {

ProbabilityBound ProbabilityBound::from_point_error(double p, double below, double above) {
  return {std::max(0.0, p - below), std::min(1.0, p + above)};
}

std::string ProbabilityBound::to_string() const {
  std::ostringstream out;
  out.precision(12);
  out << '[' << lower << ", " << upper << ']';
  return out.str();
}

Verdict compare_bound(const ProbabilityBound& value, logic::Comparison op, double bound) {
  // A NaN endpoint compares false on both sides, which would read as UNSAT;
  // an interval with a NaN end encloses nothing, so it decides nothing.
  if (std::isnan(value.lower) || std::isnan(value.upper)) return Verdict::kUnknown;
  const bool lower_sat = logic::compare(value.lower, op, bound);
  const bool upper_sat = logic::compare(value.upper, op, bound);
  // The satisfying set of every comparison operator is a half-line, so the
  // interval lies fully inside it iff both endpoints do.
  if (lower_sat && upper_sat) return Verdict::kSat;
  if (!lower_sat && !upper_sat) return Verdict::kUnsat;
  return Verdict::kUnknown;
}

}  // namespace csrlmrm::checker
