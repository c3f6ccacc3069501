// P1 and P1' enclosures against closed forms. On an Erlang-k chain
// 0 -> 1 -> ... -> k at rate 1 with goal = {k}, uniformization with
// Lambda = 1 is exact term by term: from state s the goal is reached within
// t with probability Pr{Poisson(t) >= k - s}, and an absorbing goal makes
// TT U[t1,t2] goal the same event. Each enclosure the checker reports must
// contain that value, computed here in long double, and no reported
// probability may exceed 1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>

#include "checker/sat.hpp"
#include "logic/parser.hpp"

namespace csrlmrm::checker {
namespace {

core::Mrm erlang_chain(std::size_t phases) {
  core::RateMatrixBuilder rates(phases + 1);
  for (std::size_t s = 0; s < phases; ++s) rates.add(s, s + 1, 1.0);
  core::Labeling labels(phases + 1);
  labels.add(phases, "goal");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)),
                   std::vector<double>(phases + 1, 0.0));
}

/// Pr{Poisson(mean) >= j}, as 1 minus the first j masses.
long double poisson_at_least(std::size_t j, double mean) {
  const long double m = mean;
  long double mass = std::exp(-m);
  long double below = 0.0L;
  for (std::size_t i = 0; i < j; ++i) {
    below += mass;
    mass *= m / static_cast<long double>(i + 1);
  }
  return 1.0L - below;
}

std::string until_formula(const std::string& threshold, double t1, double t2) {
  std::ostringstream text;
  text.precision(17);
  text << "P(>=" << threshold << ")[TT U[" << t1 << "," << t2 << "] goal]";
  return text.str();
}

void expect_encloses_closed_form(std::size_t phases, double t1, double t2) {
  const core::Mrm model = erlang_chain(phases);
  ModelChecker checker(model);
  const auto values = checker.path_probabilities(logic::parse_formula(until_formula("0.5", t1, t2)));
  ASSERT_EQ(values.size(), phases + 1);
  for (std::size_t s = 0; s <= phases; ++s) {
    const long double truth = poisson_at_least(phases - s, t2);
    const UntilValue& value = values[s];
    EXPECT_LE(static_cast<long double>(value.bound.lower), truth)
        << "k=" << phases << " state " << s << " U[" << t1 << "," << t2 << "]";
    EXPECT_GE(static_cast<long double>(value.bound.upper), truth)
        << "k=" << phases << " state " << s << " U[" << t1 << "," << t2 << "]";
    EXPECT_LE(value.probability, 1.0)
        << "k=" << phases << " state " << s << " U[" << t1 << "," << t2 << "]";
  }
}

TEST(ErlangClosedForm, TimeBoundedEnclosuresContainTheTruth) {
  // Means on both window branches: the scan (<= 32) and the Bernstein
  // bounds above it.
  for (std::size_t phases = 1; phases <= 3; ++phases) {
    for (const double mean : {0.5, 7.68, 32.0, 33.0, 120.0, 2500.0}) {
      expect_encloses_closed_form(phases, 0.0, mean);
    }
  }
}

TEST(ErlangClosedForm, IntervalEnclosuresContainTheTruth) {
  for (std::size_t phases = 1; phases <= 3; ++phases) {
    for (const double mean : {0.5, 7.68, 32.0, 33.0, 120.0, 2500.0}) {
      expect_encloses_closed_form(phases, mean / 2.0, mean);
      if (mean > 1.0) expect_encloses_closed_form(phases, 1.0, mean);
    }
  }
}

TEST(ErlangClosedForm, LargeMeanEnclosuresCoverTheMassRounding) {
  // Past mean ~1e4 the log-domain masses are off by more than epsilon
  // (2e-11 relative at 1e4, 7e-10 at 2.5e5), in both directions.
  for (const double mean : {1.0e4, 2.5e5}) {
    expect_encloses_closed_form(1, 0.0, mean);
    expect_encloses_closed_form(1, mean / 2.0, mean);
  }
}

TEST(ErlangClosedForm, ProbabilityOneIsNotSatisfiedShortOfTheGoal) {
  // Two phases from the goal at mean 32, the truth is 1 - 4.18e-13 (one
  // phase: 1 - 1.27e-14): P(>=1) must not hold there, over [0,32] (P1) or
  // [1,32] (P1'). The goal state itself satisfies the [0,32] formula.
  const core::Mrm model = erlang_chain(2);
  for (const bool two_phase : {false, true}) {
    const double t1 = two_phase ? 1.0 : 0.0;
    ModelChecker checker(model);
    const auto verdicts = checker.verdicts(logic::parse_formula(until_formula("1", t1, 32.0)));
    ASSERT_EQ(verdicts.size(), 3u);
    EXPECT_NE(verdicts[0], Verdict::kSat) << "t1=" << t1;
    EXPECT_NE(verdicts[1], Verdict::kSat) << "t1=" << t1;
    if (!two_phase) {
      EXPECT_EQ(verdicts[2], Verdict::kSat);
    }
  }
}

}  // namespace
}  // namespace csrlmrm::checker
