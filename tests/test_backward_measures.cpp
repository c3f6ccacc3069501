// Differential tests for the all-states measures: P1 and the P1' phase one
// (backward uniformization series), R[C] (one backward occupation series
// over the gain rates), R[S] and the S operator (one BSCC analysis and one
// first-step solve weighing a per-state value), and P0 / R[F] / hitting
// times (the shared first-step solver). Each is compared on random MRMs
// against an oracle computed here:
//   - the P1 and P1' enclosures contain the forward per-start value built
//     from transient_distribution_from;
//   - R[C] lies within its epsilon * t * max_gain slack of the forward
//     occupation sum;
//   - long_run_reward_rate matches the per-start steady distributions of
//     eq. (3.2), with every P(s, Diamond B) solved by dense elimination;
//   - the S operator is bitwise the per-BSCC target mass on BSCC states and
//     on states that reach no target mass, and matches the dense eq. (3.2)
//     elsewhere;
//   - P0, expected_time_to_hit and expected_reward_to_hit are bitwise the
//     dedicated first-step builders they replaced;
//   - every result is bitwise identical at 1, 2 and 8 threads.
// The last tests pin that one R[C] / R[S] / S check runs one series / one
// BSCC analysis and at most one linear solve, not one per state or BSCC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "checker/absorption.hpp"
#include "checker/operator_eval.hpp"
#include "checker/performability.hpp"
#include "checker/sat.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "graph/reachability.hpp"
#include "graph/scc.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "logic/parser.hpp"
#include "models/generator.hpp"
#include "models/random_mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "oracle/transient_forward.hpp"

namespace csrlmrm {
namespace {

constexpr std::uint32_t kSeeds = 24;
const unsigned kThreadCounts[] = {1, 2, 8};

/// The forward oracle and the backward series sum the same truncated series
/// in a different order, so they agree only up to rounding: a few ulps of
/// each of at most a few hundred terms, far below every epsilon under test.
constexpr double kRounding = 1e-13;

core::Mrm make_model(std::uint32_t seed) {
  models::RandomMrmConfig config;
  config.num_states = 6 + seed % 9;
  return models::make_random_mrm(seed, config);
}

/// Phi/Psi masks drawn from the seed; Psi is never empty and Phi covers most
/// states, so the until queries have non-trivial values.
void make_masks(const core::Mrm& model, std::uint32_t seed, std::vector<bool>& phi,
                std::vector<bool>& psi) {
  std::mt19937 rng(seed * 7919u + 17u);
  std::bernoulli_distribution phi_coin(0.75);
  std::bernoulli_distribution psi_coin(0.25);
  const std::size_t n = model.num_states();
  phi.assign(n, false);
  psi.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    phi[s] = phi_coin(rng);
    psi[s] = psi_coin(rng);
  }
  psi[seed % n] = true;
}

/// Odd seeds run with steady-state detection on, so the fold error has to
/// be accounted in the enclosures; the oracle always runs the full series.
checker::CheckerOptions make_options(std::uint32_t seed, unsigned threads) {
  checker::CheckerOptions options;
  options.threads = threads;
  if (seed % 2 == 1) {
    options.transient.detect_steady_state = true;
    options.transient.steady_epsilon = 1e-9;
  }
  return options;
}

/// Forward oracle of P(s, Phi U^[0,t] Psi): the Psi mass of the forward
/// distribution from s on M[!Phi v Psi].
double forward_p1(const core::Mrm& model, const std::vector<bool>& phi,
                  const std::vector<bool>& psi, core::StateIndex s, double t) {
  if (psi[s]) return 1.0;
  std::vector<bool> absorb(model.num_states(), false);
  for (std::size_t v = 0; v < absorb.size(); ++v) absorb[v] = !phi[v] || psi[v];
  const core::Mrm transformed = core::make_absorbing(model, absorb);
  const auto distribution = numeric::transient_distribution_from(transformed.rates(), s, t);
  double p = 0.0;
  for (std::size_t v = 0; v < distribution.size(); ++v) {
    if (psi[v]) p += distribution[v];
  }
  return p;
}

/// Forward oracle of P(s, Phi U^[t1,t2] Psi): the forward distribution at t1
/// on M[!Phi] from s, weighing the forward P1 oracle on [0, t2 - t1].
double forward_p1_prime(const core::Mrm& model, const std::vector<bool>& phi,
                        const std::vector<bool>& psi, core::StateIndex s, double t1,
                        double t2) {
  if (!phi[s]) return 0.0;
  std::vector<bool> not_phi(model.num_states(), false);
  for (std::size_t v = 0; v < not_phi.size(); ++v) not_phi[v] = !phi[v];
  const core::Mrm phase_one = core::make_absorbing(model, not_phi);
  const auto at_t1 = numeric::transient_distribution_from(phase_one.rates(), s, t1);
  double p = 0.0;
  for (core::StateIndex mid = 0; mid < at_t1.size(); ++mid) {
    if (phi[mid]) p += at_t1[mid] * forward_p1(model, phi, psi, mid, t2 - t1);
  }
  return p;
}

/// Forward oracle of E[Y(t)] from s: the occupation-time row vector
/// (1/Lambda) sum_k Pr{N_t >= k+1} e_s P^k, weighed by the gain rates. Cut at
/// a far tighter epsilon than the checker's, so it stands in for the truth.
double forward_accumulated_reward(const core::Mrm& model, core::StateIndex s, double t) {
  const auto gain = checker::per_state_gain_rates(model);
  const std::size_t n = model.num_states();
  if (core::exactly_zero(model.rates().max_exit_rate())) return gain[s] * t;
  double lambda = 0.0;
  const linalg::CsrMatrix P = numeric::uniformized_transition_matrix(model.rates(), lambda);
  const double mean = lambda * t;
  const std::size_t cap = numeric::poisson_truncation_point(mean, 1e-16 / (mean + 1.0)) + 1;
  const numeric::SharedPoissonTail tail_table(mean, cap + 1);
  std::vector<double> term(n, 0.0);
  term[s] = 1.0;
  std::vector<double> occupation(n, 0.0);
  for (std::size_t k = 0; k <= cap; ++k) {
    const double weight = tail_table.tail(k + 1) / lambda;
    if (weight <= 0.0) break;
    for (std::size_t v = 0; v < n; ++v) occupation[v] += weight * term[v];
    term = P.left_multiply(term);
  }
  double reward = 0.0;
  for (std::size_t v = 0; v < n; ++v) reward += occupation[v] * gain[v];
  return reward;
}

/// The long-run measures' tolerance against the dense oracle, relative to
/// the oracle value: both sides solve the same equations, the checker's
/// Gauss-Seidel only until one sweep moves the iterate (scaled to the
/// largest BSCC weight) by less than 1e-12. The largest deviation seen is
/// 9.9e-12 relative (seed 20, an S value and the long-run rate; 5.8e-12 on the
/// tiny-mass model), so the bound keeps a factor of ten in reserve.
constexpr double kLongRunTolerance = 1e-10;

/// Eq. (3.2) per BSCC, solved independently of the checker: pi^B by the
/// same stationary solve the checker runs (Gauss-Seidel, dense fallback),
/// and P(s, Diamond B) for every s by dense elimination of
/// (I - P_UU) x = P_UB 1 over the states U outside B that can reach B.
struct DenseLongRun {
  std::vector<std::vector<core::StateIndex>> bsccs;
  std::vector<std::vector<double>> steady_within;  // aligned with bsccs[b]
  std::vector<std::vector<double>> reach;          // [b][s] = P(s, Diamond B_b)
};

DenseLongRun dense_long_run(const core::Mrm& model) {
  const linalg::IterativeOptions solver;
  const std::size_t n = model.num_states();
  DenseLongRun oracle;
  for (const auto& component : graph::bottom_sccs(model.rates().matrix())) {
    linalg::CsrBuilder builder(component.size(), component.size());
    std::vector<std::size_t> local(n, n);
    for (std::size_t i = 0; i < component.size(); ++i) local[component[i]] = i;
    for (std::size_t i = 0; i < component.size(); ++i) {
      double exit = 0.0;
      for (const auto& e : model.rates().transitions(component[i])) {
        builder.add(i, local[e.col], e.value);
        exit += e.value;
      }
      builder.add(i, i, -exit);
    }
    const linalg::CsrMatrix generator = builder.build();
    linalg::IterativeResult outcome;
    std::vector<double> pi = linalg::steady_state_gauss_seidel(generator, solver, &outcome);
    if (component.size() > 1 && !outcome.converged) {
      auto dense = generator.transposed().to_dense();
      std::vector<double> rhs(component.size(), 0.0);
      for (std::size_t c = 0; c < component.size(); ++c) dense.back()[c] = 1.0;
      rhs.back() = 1.0;
      pi = linalg::dense_solve(std::move(dense), std::move(rhs));
    }

    std::vector<bool> in_component(n, false);
    for (const core::StateIndex s : component) in_component[s] = true;
    const auto reaches = graph::backward_reachable(model.rates().matrix(), in_component);
    std::vector<core::StateIndex> unknown;
    std::vector<std::size_t> index(n, n);
    for (core::StateIndex s = 0; s < n; ++s) {
      if (reaches[s] && !in_component[s]) {
        index[s] = unknown.size();
        unknown.push_back(s);
      }
    }
    std::vector<std::vector<double>> a(unknown.size(), std::vector<double>(unknown.size(), 0.0));
    std::vector<double> b(unknown.size(), 0.0);
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      const double exit = model.rates().exit_rate(unknown[i]);
      a[i][i] += 1.0;
      for (const auto& e : model.rates().transitions(unknown[i])) {
        if (in_component[e.col]) {
          b[i] += e.value / exit;
        } else if (index[e.col] != n) {
          a[i][index[e.col]] -= e.value / exit;
        }
      }
    }
    const std::vector<double> x =
        unknown.empty() ? std::vector<double>{} : linalg::dense_solve(std::move(a), std::move(b));
    std::vector<double> reach(n, 0.0);
    for (const core::StateIndex s : component) reach[s] = 1.0;
    for (std::size_t i = 0; i < unknown.size(); ++i) reach[unknown[i]] = x[i];

    oracle.bsccs.push_back(component);
    oracle.steady_within.push_back(std::move(pi));
    oracle.reach.push_back(std::move(reach));
  }
  return oracle;
}

/// The steady-state probability of `target` by eq. (3.2) summed over the
/// target alone: per BSCC, the steady-state mass inside the target, weighed
/// by the dense probability of reaching the BSCC.
std::vector<double> target_mass_formula(const DenseLongRun& oracle,
                                        const std::vector<bool>& target) {
  std::vector<double> result(target.size(), 0.0);
  for (std::size_t b = 0; b < oracle.bsccs.size(); ++b) {
    double mass = 0.0;
    for (std::size_t i = 0; i < oracle.bsccs[b].size(); ++i) {
      if (target[oracle.bsccs[b][i]]) mass += oracle.steady_within[b][i];
    }
    if (core::exactly_zero(mass)) continue;
    for (std::size_t s = 0; s < result.size(); ++s) result[s] += oracle.reach[b][s] * mass;
  }
  return result;
}

/// pi(start, {s'}) for every s' by eq. (3.2) with the dense reach
/// probabilities.
std::vector<double> dense_steady_distribution(const DenseLongRun& oracle, core::StateIndex start,
                                              std::size_t num_states) {
  std::vector<double> result(num_states, 0.0);
  for (std::size_t b = 0; b < oracle.bsccs.size(); ++b) {
    for (std::size_t i = 0; i < oracle.bsccs[b].size(); ++i) {
      result[oracle.bsccs[b][i]] += oracle.reach[b][start] * oracle.steady_within[b][i];
    }
  }
  return result;
}

/// P0 as a dedicated embedded-chain builder, kept here verbatim so the
/// shared first-step solver is pinned to it bit for bit.
std::vector<double> reference_unbounded_until(const core::Mrm& model,
                                              const std::vector<bool>& sat_phi,
                                              const std::vector<bool>& sat_psi) {
  const linalg::IterativeOptions solver;
  const std::size_t n = model.num_states();
  const std::vector<bool> positive =
      graph::backward_reachable_via(model.rates().matrix(), sat_phi, sat_psi);
  std::vector<double> result(n, 0.0);
  std::vector<core::StateIndex> unknown;
  std::vector<std::size_t> unknown_index(n, n);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (sat_psi[s]) {
      result[s] = 1.0;
    } else if (sat_phi[s] && positive[s]) {
      unknown_index[s] = unknown.size();
      unknown.push_back(s);
    }
  }
  if (unknown.empty()) return result;
  linalg::CsrBuilder builder(unknown.size(), unknown.size());
  std::vector<double> rhs(unknown.size(), 0.0);
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    const core::StateIndex s = unknown[i];
    const double exit = model.rates().exit_rate(s);
    builder.add(i, i, 1.0);
    for (const auto& e : model.rates().transitions(s)) {
      const double p = e.value / exit;
      if (sat_psi[e.col]) {
        rhs[i] += p;
      } else if (unknown_index[e.col] != n) {
        builder.add(i, unknown_index[e.col], -p);
      }
    }
  }
  std::vector<double> x(unknown.size(), 0.0);
  EXPECT_TRUE(linalg::gauss_seidel_solve(builder.build(), rhs, x, solver).converged);
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    result[unknown[i]] = std::min(1.0, std::max(0.0, x[i]));
  }
  return result;
}

/// The hitting-cost builder behind expected_time_to_hit /
/// expected_reward_to_hit, kept here verbatim for the same bitwise pin.
template <typename ImmediateCost, typename EdgeCost>
std::vector<double> reference_cost_to_hit(const core::Mrm& model,
                                          const std::vector<bool>& target,
                                          ImmediateCost immediate, EdgeCost edge) {
  const linalg::IterativeOptions solver;
  const std::size_t n = model.num_states();
  const auto& adjacency = model.rates().matrix();
  const std::vector<bool> can_reach = graph::backward_reachable(adjacency, target);
  std::vector<bool> doomed(n, false);
  for (core::StateIndex s = 0; s < n; ++s) doomed[s] = !can_reach[s];
  const std::vector<bool> sub_one = graph::backward_reachable(adjacency, doomed);
  std::vector<double> result(n, std::numeric_limits<double>::infinity());
  std::vector<core::StateIndex> unknown;
  std::vector<std::size_t> unknown_index(n, n);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (target[s]) {
      result[s] = 0.0;
    } else if (!sub_one[s]) {
      unknown_index[s] = unknown.size();
      unknown.push_back(s);
    }
  }
  if (unknown.empty()) return result;
  linalg::CsrBuilder builder(unknown.size(), unknown.size());
  std::vector<double> rhs(unknown.size(), 0.0);
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    const core::StateIndex s = unknown[i];
    const double exit = model.rates().exit_rate(s);
    builder.add(i, i, 1.0);
    rhs[i] = immediate(s);
    for (const auto& e : model.rates().transitions(s)) {
      const double p = e.value / exit;
      rhs[i] += p * edge(s, e.col);
      if (!target[e.col]) builder.add(i, unknown_index[e.col], -p);
    }
  }
  std::vector<double> x(unknown.size(), 0.0);
  EXPECT_TRUE(linalg::gauss_seidel_solve(builder.build(), rhs, x, solver).converged);
  for (std::size_t i = 0; i < unknown.size(); ++i) result[unknown[i]] = x[i];
  return result;
}

/// Every new measure's output for one (model, masks, options) triple.
struct Measures {
  std::vector<checker::UntilValue> p1;
  std::vector<checker::UntilValue> p1_prime;
  std::vector<checker::ProbabilityBound> cumulative;
  std::vector<double> cumulative_values;
  std::vector<double> long_run;
  std::vector<double> steady;
};

constexpr double kT = 3.0;
constexpr double kT1 = 1.5;
constexpr double kT2 = 4.0;

Measures compute_measures(const core::Mrm& model, const std::vector<bool>& phi,
                          const std::vector<bool>& psi,
                          const checker::CheckerOptions& options) {
  Measures m;
  m.p1 = checker::until_probabilities(model, phi, psi, logic::up_to(kT), logic::Interval{},
                                      options);
  m.p1_prime = checker::until_probabilities(model, phi, psi, logic::Interval(kT1, kT2),
                                            logic::Interval{}, options);
  checker::ModelChecker checker(model, options);
  const auto cumulative = logic::parse_formula("R(<1)[C[0,3]]");
  m.cumulative = checker.value_bounds(cumulative);
  m.cumulative_values = checker.expected_rewards(cumulative);
  m.long_run = checker.expected_rewards(logic::parse_formula("R(<1)[S]"));
  m.steady = checker::steady_state_probability_of_set(model, psi, options.solver);
  return m;
}

bool bitwise_equal(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && bitwise_equal(a.data(), b.data(), a.size() * sizeof(T));
}

bool bitwise_equal(const std::vector<checker::UntilValue>& a,
                   const std::vector<checker::UntilValue>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    const double lhs[] = {a[s].probability, a[s].error_bound, a[s].bound.lower, a[s].bound.upper};
    const double rhs[] = {b[s].probability, b[s].error_bound, b[s].bound.lower, b[s].bound.upper};
    if (!bitwise_equal(lhs, rhs, sizeof(lhs))) return false;
  }
  return true;
}

bool bitwise_equal(const std::vector<checker::ProbabilityBound>& a,
                   const std::vector<checker::ProbabilityBound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    const double lhs[] = {a[s].lower, a[s].upper};
    const double rhs[] = {b[s].lower, b[s].upper};
    if (!bitwise_equal(lhs, rhs, sizeof(lhs))) return false;
  }
  return true;
}

::testing::AssertionResult encloses(const checker::ProbabilityBound& bound, double oracle) {
  if (bound.lower - kRounding <= oracle && oracle <= bound.upper + kRounding) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "oracle " << oracle << " outside [" << bound.lower << ", " << bound.upper << "]";
}

/// A long-run value against its dense oracle: bitwise where the oracle is
/// exactly 0 (no weighted BSCC is reachable), otherwise within
/// kLongRunTolerance relative to the oracle.
::testing::AssertionResult long_run_close(double value, double oracle) {
  const bool close = core::exactly_zero(oracle)
                         ? bitwise_equal(&value, &oracle, sizeof(double))
                         : std::abs(value - oracle) <= kLongRunTolerance * std::abs(oracle);
  if (close) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "value " << value << " vs dense oracle " << oracle;
}

class BackwardMeasures : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BackwardMeasures, UntilEnclosuresContainTheForwardOracle) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  std::vector<bool> phi, psi;
  make_masks(model, seed, phi, psi);
  const auto options = make_options(seed, 1);
  const auto p1 = checker::until_probabilities(model, phi, psi, logic::up_to(kT),
                                               logic::Interval{}, options);
  const auto p1_prime = checker::until_probabilities(model, phi, psi, logic::Interval(kT1, kT2),
                                                     logic::Interval{}, options);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_TRUE(encloses(p1[s].bound, forward_p1(model, phi, psi, s, kT)))
        << "P1 seed=" << seed << " s=" << s;
    EXPECT_TRUE(encloses(p1_prime[s].bound, forward_p1_prime(model, phi, psi, s, kT1, kT2)))
        << "P1' seed=" << seed << " s=" << s;
  }
}

TEST_P(BackwardMeasures, CumulativeRewardIsWithinItsSlackOfTheForwardOccupationSum) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const auto options = make_options(seed, 1);
  checker::ModelChecker checker(model, options);
  const auto formula = logic::parse_formula("R(<1)[C[0,3]]");
  const auto values = checker.expected_rewards(formula);
  const auto bounds = checker.value_bounds(formula);
  const auto gain = checker::per_state_gain_rates(model);
  const double slack =
      options.transient.epsilon * kT * *std::max_element(gain.begin(), gain.end());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const double oracle = forward_accumulated_reward(model, s, kT);
    // The oracle lies in [v, v + eps * t * max_gain] (up to rounding scaled
    // by the reward magnitude), and that slack is the reported enclosure.
    const double rounding = kRounding * std::max(1.0, oracle);
    EXPECT_GE(oracle, values[s] - rounding) << "seed=" << seed << " s=" << s;
    EXPECT_LE(oracle, values[s] + slack + rounding) << "seed=" << seed << " s=" << s;
    EXPECT_EQ(bounds[s].lower, values[s]);
    EXPECT_EQ(bounds[s].upper, values[s] + slack);
    EXPECT_EQ(checker::expected_accumulated_reward(model, s, kT, options.transient), values[s]);
  }
}

TEST_P(BackwardMeasures, LongRunRateMatchesPerStartSteadyDistributions) {
  // The per-start distributions come from the dense eq. (3.2) here: the
  // library oracle steady_state_distribution sums per-BSCC Gauss-Seidel
  // reach solves, each stopped at its own 1e-12 step, and drifts further
  // from the exact value than the one combined solve does.
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const DenseLongRun oracle_run = dense_long_run(model);
  const auto rates = checker::long_run_reward_rate(model);
  const auto gain = checker::per_state_gain_rates(model);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto pi = dense_steady_distribution(oracle_run, s, model.num_states());
    double oracle = 0.0;
    for (core::StateIndex v = 0; v < model.num_states(); ++v) oracle += pi[v] * gain[v];
    EXPECT_TRUE(long_run_close(rates[s], oracle)) << "seed=" << seed << " s=" << s;
  }
}

TEST_P(BackwardMeasures, SteadyOperatorIsBitwiseTheTargetMassFormula) {
  // Bitwise on BSCC states, whose value is their own BSCC's target mass;
  // long_run_close to the dense formula on every other state. The operator
  // is bitwise the set measure it wraps.
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const DenseLongRun oracle = dense_long_run(model);
  std::vector<bool> in_bscc(model.num_states(), false);
  for (const auto& component : oracle.bsccs) {
    for (const core::StateIndex s : component) in_bscc[s] = true;
  }
  std::vector<bool> phi, psi;
  make_masks(model, seed, phi, psi);
  for (const auto& target : {phi, psi, model.labels().states_with("a")}) {
    const auto expected = target_mass_formula(oracle, target);
    const auto values = checker::steady_state_probability_of_set(model, target);
    ASSERT_EQ(values.size(), expected.size());
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (in_bscc[s]) {
        EXPECT_TRUE(bitwise_equal(&values[s], &expected[s], sizeof(double)))
            << "seed=" << seed << " s=" << s << " value=" << values[s]
            << " expected=" << expected[s];
      } else {
        EXPECT_TRUE(long_run_close(values[s], expected[s])) << "seed=" << seed << " s=" << s;
      }
    }
    checker::SatSets operand;
    operand.sat = target;
    operand.unknown.assign(target.size(), false);
    EXPECT_TRUE(bitwise_equal(checker::evaluate_steady_operator(model, operand, {}).values,
                              values))
        << "seed=" << seed;
  }
}

TEST_P(BackwardMeasures, FirstStepMeasuresAreBitwiseTheirDedicatedBuilders) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  std::vector<bool> phi, psi;
  make_masks(model, seed, phi, psi);
  EXPECT_TRUE(bitwise_equal(checker::unbounded_until_probabilities(model, phi, psi),
                            reference_unbounded_until(model, phi, psi)))
      << "seed=" << seed;
  const auto exit = [&](core::StateIndex s) { return model.rates().exit_rate(s); };
  for (const auto& target : {phi, psi}) {
    EXPECT_TRUE(bitwise_equal(
        checker::expected_time_to_hit(model, target),
        reference_cost_to_hit(
            model, target, [&](core::StateIndex s) { return 1.0 / exit(s); },
            [](core::StateIndex, core::StateIndex) { return 0.0; })))
        << "seed=" << seed;
    EXPECT_TRUE(bitwise_equal(
        checker::expected_reward_to_hit(model, target),
        reference_cost_to_hit(
            model, target, [&](core::StateIndex s) { return model.state_reward(s) / exit(s); },
            [&](core::StateIndex s, core::StateIndex v) { return model.impulse_reward(s, v); })))
        << "seed=" << seed;
  }
}

TEST_P(BackwardMeasures, EveryMeasureIsBitwiseIdenticalAtOneTwoAndEightThreads) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  std::vector<bool> phi, psi;
  make_masks(model, seed, phi, psi);
  const Measures serial = compute_measures(model, phi, psi, make_options(seed, 1));
  for (const unsigned threads : kThreadCounts) {
    const Measures m = compute_measures(model, phi, psi, make_options(seed, threads));
    EXPECT_TRUE(bitwise_equal(m.p1, serial.p1)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(m.p1_prime, serial.p1_prime)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(m.cumulative, serial.cumulative)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(m.cumulative_values, serial.cumulative_values))
        << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(m.long_run, serial.long_run)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(m.steady, serial.steady)) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackwardMeasures, ::testing::Range(0u, kSeeds));

/// Two BSCCs of tiny steady-state mass behind a transient cycle 0 -> 1 -> 2:
/// in B1 = {3, 4} pi(3) is about 1e-9, in B2 = {5, 6} pi(5) about 1e-6.
/// States 3 and 5 carry label "a" and state reward 1.
core::Mrm tiny_mass_model() {
  core::RateMatrixBuilder rates(7);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 1.0);
  rates.add(1, 2, 2.0);
  rates.add(1, 3, 1.0);
  rates.add(2, 0, 1.0);
  rates.add(2, 5, 0.5);
  rates.add(3, 4, 1.0);
  rates.add(4, 3, 1e-9);
  rates.add(5, 6, 1.0);
  rates.add(6, 5, 1e-6);
  core::Labeling labels(7);
  labels.add(3, "a");
  labels.add(5, "a");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)),
                   {0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0});
}

TEST(BackwardMeasureTinyMasses, LongRunValuesMatchTheDenseFormulaRelatively) {
  const core::Mrm model = tiny_mass_model();
  const DenseLongRun oracle = dense_long_run(model);
  ASSERT_EQ(oracle.bsccs.size(), 2u);
  const std::vector<bool> in_b1 = {false, false, false, true, false, false, false};
  const std::vector<bool> in_b2 = {false, false, false, false, false, true, false};
  for (const auto& target : {in_b1, in_b2, model.labels().states_with("a")}) {
    const auto values = checker::steady_state_probability_of_set(model, target);
    const auto expected = target_mass_formula(oracle, target);
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      EXPECT_TRUE(long_run_close(values[s], expected[s])) << "s=" << s;
    }
  }
  const auto rates = checker::long_run_reward_rate(model);
  const auto gain = checker::per_state_gain_rates(model);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto pi = dense_steady_distribution(oracle, s, model.num_states());
    double expected = 0.0;
    for (core::StateIndex v = 0; v < model.num_states(); ++v) expected += pi[v] * gain[v];
    EXPECT_TRUE(long_run_close(rates[s], expected)) << "s=" << s;
  }
}

/// One R-operator check's counter deltas, recorded in the global registry.
class BackwardMeasureCalls : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }
};

TEST_F(BackwardMeasureCalls, CumulativeRewardCheckRunsOneOccupationSeries) {
  const core::Mrm model = make_model(5);
  ASSERT_GT(model.num_states(), 1u);
  checker::ModelChecker checker(model);
  checker.verdicts(logic::parse_formula("R(<2)[C[0,3]]"));
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("transient.occupation_calls"), 1u);
  EXPECT_EQ(registry.counter("checker.expected_reward.calls"), 1u);
}

TEST_F(BackwardMeasureCalls, LongRunRewardCheckRunsOneSteadyAnalysis) {
  const core::Mrm model = make_model(5);
  ASSERT_GT(model.num_states(), 1u);
  checker::ModelChecker checker(model);
  checker.verdicts(logic::parse_formula("R(<2)[S]"));
  EXPECT_EQ(obs::StatsRegistry::global().counter("checker.steady.calls"), 1u);
}

/// crowd:population=12 has 12 BSCCs, the absorbing extinct states, whose
/// state rewards are 0 and whose outbreak label is never set.
core::Mrm crowd_twelve() { return models::make_generated_mrm("crowd:population=12"); }

TEST_F(BackwardMeasureCalls, WeightedLongRunMeasuresRunOneFirstStepSolve) {
  const core::Mrm crowd = crowd_twelve();
  // Unit state rewards make every BSCC's R[S] weight 1.
  const core::Mrm unit(crowd.ctmc(), std::vector<double>(crowd.num_states(), 1.0));
  auto& registry = obs::StatsRegistry::global();
  checker::ModelChecker(crowd).verdicts(logic::parse_formula("S(>0.2) extinct"));
  EXPECT_EQ(registry.counter("checker.steady.bsccs"), 12u);
  EXPECT_EQ(registry.counter("solver.gauss_seidel.calls"), 1u);
  registry.reset();
  const auto rates =
      checker::ModelChecker(unit).expected_rewards(logic::parse_formula("R(<2)[S]"));
  EXPECT_EQ(registry.counter("solver.gauss_seidel.calls"), 1u);
  for (const double rate : rates) EXPECT_NEAR(rate, 1.0, 1e-12);
}

TEST_F(BackwardMeasureCalls, ZeroWeightLongRunMeasuresRunNoSolveAndAreExactlyZero) {
  const core::Mrm crowd = crowd_twelve();
  checker::ModelChecker checker(crowd);
  const auto outbreak = checker.steady_probabilities(logic::parse_formula("S(>0.2) outbreak"));
  const auto rates = checker.expected_rewards(logic::parse_formula("R(<2)[S]"));
  EXPECT_EQ(obs::StatsRegistry::global().counter("solver.gauss_seidel.calls"), 0u);
  const std::vector<double> zeros(crowd.num_states(), 0.0);
  EXPECT_TRUE(bitwise_equal(outbreak, zeros));
  EXPECT_TRUE(bitwise_equal(rates, zeros));
}

}  // namespace
}  // namespace csrlmrm
