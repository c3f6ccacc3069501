// Differential tests for the all-states measures: P1 and the P1' phase one
// (backward uniformization series), R[C] (one backward occupation series
// over the gain rates), R[S] and the S operator (one BSCC analysis weighing a
// per-state value). Each is compared on random MRMs against a forward oracle
// computed here, one start state at a time:
//   - the P1 and P1' enclosures contain the forward per-start value built
//     from transient_distribution_from;
//   - R[C] lies within its epsilon * t * max_gain slack of the forward
//     occupation sum;
//   - long_run_reward_rate matches sum_s' steady_state_distribution * gain;
//   - the S operator is bitwise equal to the per-BSCC target-mass formula;
//   - every result is bitwise identical at 1, 2 and 8 threads.
// A last pair of tests pins that one R[C] / R[S] check runs one series / one
// BSCC analysis, not one per state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "checker/operator_eval.hpp"
#include "checker/performability.hpp"
#include "checker/sat.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/approx.hpp"
#include "core/transform.hpp"
#include "graph/scc.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "logic/parser.hpp"
#include "models/random_mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"

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

/// The steady-state probability of `target` by eq. (3.2) summed over the
/// target alone: per BSCC, the steady-state mass inside the target, weighed
/// by the probability of reaching the BSCC.
std::vector<double> target_mass_formula(const core::Mrm& model, const std::vector<bool>& target) {
  const linalg::IterativeOptions solver;
  const std::size_t n = model.num_states();
  const std::vector<bool> everywhere(n, true);
  std::vector<double> result(n, 0.0);
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
    const auto reach = checker::unbounded_until_probabilities(model, everywhere, in_component);
    double mass = 0.0;
    for (std::size_t i = 0; i < component.size(); ++i) {
      if (target[component[i]]) mass += pi[i];
    }
    if (core::exactly_zero(mass)) continue;
    for (core::StateIndex s = 0; s < n; ++s) result[s] += reach[s] * mass;
  }
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
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const auto rates = checker::long_run_reward_rate(model);
  const auto gain = checker::per_state_gain_rates(model);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto pi = checker::steady_state_distribution(model, s);
    double oracle = 0.0;
    for (core::StateIndex v = 0; v < model.num_states(); ++v) oracle += pi[v] * gain[v];
    EXPECT_LE(std::abs(rates[s] - oracle), 1e-12 * std::abs(oracle))
        << "seed=" << seed << " s=" << s << " rate=" << rates[s] << " oracle=" << oracle;
  }
}

TEST_P(BackwardMeasures, SteadyOperatorIsBitwiseTheTargetMassFormula) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  std::vector<bool> phi, psi;
  make_masks(model, seed, phi, psi);
  for (const auto& target : {phi, psi, model.labels().states_with("a")}) {
    const auto expected = target_mass_formula(model, target);
    EXPECT_TRUE(bitwise_equal(checker::steady_state_probability_of_set(model, target), expected))
        << "seed=" << seed;
    checker::SatSets operand;
    operand.sat = target;
    operand.unknown.assign(target.size(), false);
    EXPECT_TRUE(bitwise_equal(checker::evaluate_steady_operator(model, operand, {}).values,
                              expected))
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

}  // namespace
}  // namespace csrlmrm
