// The Gauss-Seidel sweeps pinned bit for bit against a copy of the
// row-scanning sweeps they replaced (each row's stored entries walked with a
// per-entry diagonal test). The solver splits the diagonal out once per solve
// and first_step_solve emits its triplets row-major; neither may change a
// single bit of any iterate, sweep count or final delta. Suites are named
// GaussSeidel* / SteadyStateGaussSeidel* so the sanitizer lanes in
// tests/CMakeLists.txt pick them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker/absorption.hpp"
#include "core/approx.hpp"
#include "core/mrm.hpp"
#include "graph/reachability.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/vector_ops.hpp"
#include "models/generator.hpp"

namespace csrlmrm {
namespace {

using linalg::CsrBuilder;
using linalg::CsrMatrix;
using linalg::IterativeOptions;
using linalg::IterativeResult;

// ----------------------------------------------------------- reference sweeps

IterativeResult reference_gauss_seidel(const CsrMatrix& A, const std::vector<double>& b,
                                       std::vector<double>& x, const IterativeOptions& options) {
  const std::size_t n = A.rows();
  IterativeResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double off = 0.0;
      double diag = 0.0;
      for (const linalg::Entry& e : A.row(i)) {
        if (e.col == i) {
          diag = e.value;
        } else {
          off += e.value * x[e.col];
        }
      }
      if (core::exactly_zero(diag)) {
        throw std::invalid_argument("gauss_seidel_solve: zero diagonal at row " +
                                    std::to_string(i));
      }
      const double next = (b[i] - off) / diag;
      delta = std::max(delta, std::abs(next - x[i]));
      x[i] = next;
    }
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

std::vector<double> reference_steady_state(const CsrMatrix& Q, const IterativeOptions& options,
                                           IterativeResult& result) {
  const std::size_t n = Q.rows();
  if (n == 1) {
    result = {true, 0, 0.0};
    return {1.0};
  }
  const CsrMatrix Qt = Q.transposed();
  std::vector<double> exit_rate(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) exit_rate[i] = -Q.at(i, i);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  result = {};
  const std::size_t phase1 = std::min<std::size_t>(1000, options.max_iterations / 2);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const double omega = iter < phase1 ? 1.0 : 0.5;
    std::vector<double> prev = pi;
    for (std::size_t i = 0; i < n; ++i) {
      double inflow = 0.0;
      for (const linalg::Entry& e : Qt.row(i)) {
        if (e.col != i) inflow += e.value * pi[e.col];
      }
      pi[i] = (1.0 - omega) * pi[i] + omega * inflow / exit_rate[i];
    }
    linalg::normalize_to_distribution(pi);
    result.iterations = iter + 1;
    result.final_delta = linalg::linf_distance(prev, pi);
    if (result.final_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return pi;
}

/// The first-step system (I - P_UU) y = b as first_step_solve built it
/// before it emitted row-major triplets: each row's diagonal first, so any
/// row with an unknown successor below it went through CsrBuilder's sort.
struct FirstStepSystem {
  std::vector<core::StateIndex> states;
  CsrMatrix A;
  std::vector<double> b;
};

FirstStepSystem reference_first_step_system(const core::Mrm& model,
                                            const std::vector<bool>& unknown,
                                            const std::vector<double>& sojourn_rate,
                                            bool with_impulses, const std::vector<double>& x) {
  const std::size_t n = model.num_states();
  FirstStepSystem system;
  std::vector<std::size_t> index(n, n);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (unknown[s]) {
      index[s] = system.states.size();
      system.states.push_back(s);
    }
  }
  CsrBuilder builder(system.states.size(), system.states.size());
  system.b.assign(system.states.size(), 0.0);
  for (std::size_t i = 0; i < system.states.size(); ++i) {
    const core::StateIndex s = system.states[i];
    const double exit = model.rates().exit_rate(s);
    builder.add(i, i, 1.0);
    if (!sojourn_rate.empty()) system.b[i] = sojourn_rate[s] / exit;
    for (const auto& e : model.rates().transitions(s)) {
      const double p = e.value / exit;
      const double impulse = with_impulses ? model.impulse_reward(s, e.col) : 0.0;
      if (index[e.col] == n) {
        system.b[i] += p * (impulse + x[e.col]);
      } else {
        if (with_impulses) system.b[i] += p * impulse;
        builder.add(i, index[e.col], -p);
      }
    }
  }
  system.A = builder.build();
  return system;
}

void reference_first_step_solve(const core::Mrm& model, const std::vector<bool>& unknown,
                                const std::vector<double>& sojourn_rate, bool with_impulses,
                                std::vector<double>& x) {
  const FirstStepSystem system =
      reference_first_step_system(model, unknown, sojourn_rate, with_impulses, x);
  std::vector<double> y(system.states.size(), 0.0);
  ASSERT_TRUE(reference_gauss_seidel(system.A, system.b, y, {}).converged);
  for (std::size_t i = 0; i < system.states.size(); ++i) x[system.states[i]] = y[i];
}

// ------------------------------------------------------------------- helpers

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_outcome(const IterativeResult& got, const IterativeResult& want) {
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_TRUE(same_bits(got.final_delta, want.final_delta))
      << got.final_delta << " vs " << want.final_delta;
}

/// Runs both sweeps from the same start vector and pins every output bit.
void expect_sweeps_agree(const CsrMatrix& A, const std::vector<double>& b,
                         const std::vector<double>& start, const IterativeOptions& options) {
  std::vector<double> want = start;
  const IterativeResult expected = reference_gauss_seidel(A, b, want, options);
  std::vector<double> got = start;
  const IterativeResult outcome = linalg::gauss_seidel_solve(A, b, got, options);
  expect_same_outcome(outcome, expected);
  EXPECT_TRUE(same_bits(got, want));
}

/// Where row i's diagonal sits among its stored entries.
enum class DiagonalAt { kFirst, kMiddle, kLast, kMergedSelfLoop };

/// A random strictly diagonally dominant n x n system. Row i places its
/// diagonal at a random DiagonalAt of its own; the merged self-loop row adds the
/// diagonal as two triplets (1 + |off| + slack, then a negative self-loop
/// share), the way first_step_solve merges 1.0 with -p.
CsrMatrix random_dominant_matrix(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> weight(0.01, 1.0);
  std::uniform_int_distribution<int> coin(0, 3);
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto placement = static_cast<DiagonalAt>(coin(rng));
    double off_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || coin(rng) != 0) continue;
      const bool below = j < i;
      if ((placement == DiagonalAt::kFirst && below) ||
          (placement == DiagonalAt::kLast && !below)) {
        continue;
      }
      const double v = (coin(rng) == 0 ? 1.0 : -1.0) * weight(rng);
      builder.add(i, j, v);
      off_sum += std::abs(v);
    }
    const double diagonal = off_sum + 0.5 + weight(rng);
    if (placement == DiagonalAt::kMergedSelfLoop) {
      const double loop = weight(rng) * 0.25;
      builder.add(i, i, diagonal + loop);
      builder.add(i, i, -loop);
    } else {
      builder.add(i, i, diagonal);
    }
  }
  return builder.build();
}

std::vector<double> random_vector(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> value(-5.0, 5.0);
  std::vector<double> v(n);
  for (double& x : v) x = value(rng);
  return v;
}

// ------------------------------------------------------------ gauss_seidel

TEST(GaussSeidelSweep, MatchesTheReferenceOnRandomDominantSystems) {
  for (unsigned seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + rng() % 80;
    const CsrMatrix A = random_dominant_matrix(n, rng);
    const std::vector<double> b = random_vector(n, rng);
    const std::vector<double> start =
        seed % 2 == 0 ? std::vector<double>(n, 0.0) : random_vector(n, rng);
    expect_sweeps_agree(A, b, start, {});
  }
}

TEST(GaussSeidelSweep, DiagonalFirstMiddleAndLastInOneSystem) {
  // Row 0: diagonal first; row 1: middle; row 2: last; row 3: a self-loop
  // merged into the diagonal; row 4: diagonal only.
  CsrBuilder builder(5, 5);
  builder.add(0, 0, 4.0);
  builder.add(0, 2, -1.0);
  builder.add(0, 4, 0.5);
  builder.add(1, 0, -1.25);
  builder.add(1, 1, 5.0);
  builder.add(1, 3, -0.75);
  builder.add(2, 0, 0.3);
  builder.add(2, 1, -1.1);
  builder.add(2, 2, 3.0);
  builder.add(3, 3, 1.0);
  builder.add(3, 1, -0.2);
  builder.add(3, 3, -0.1);
  builder.add(3, 4, -0.3);
  builder.add(4, 4, 2.0);
  const CsrMatrix A = builder.build();
  ASSERT_TRUE(same_bits(A.at(3, 3), 1.0 + -0.1));
  expect_sweeps_agree(A, {1.0, -2.0, 0.5, 0.1, 3.0}, std::vector<double>(5, 0.0), {});
}

TEST(GaussSeidelSweep, IterationCapStopsAtTheSameIterate) {
  std::mt19937_64 rng(99);
  const CsrMatrix A = random_dominant_matrix(40, rng);
  const std::vector<double> b = random_vector(40, rng);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    IterativeOptions options;
    options.max_iterations = cap;
    options.tolerance = 1e-300;
    std::vector<double> x(40, 100.0);
    const IterativeResult outcome = linalg::gauss_seidel_solve(A, b, x, options);
    EXPECT_FALSE(outcome.converged);
    EXPECT_EQ(outcome.iterations, cap);
    expect_sweeps_agree(A, b, std::vector<double>(40, 100.0), options);
  }
}

TEST(GaussSeidelSweep, ZeroDiagonalNamesTheFirstZeroRow) {
  // Row 2 stores no diagonal; row 3's diagonal cancels to zero and is
  // dropped by the builder. The error names row 2, as the sweep did.
  CsrBuilder builder(4, 4);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 2.0);
  builder.add(2, 0, 1.0);
  builder.add(3, 3, 1.0);
  builder.add(3, 3, -1.0);
  builder.add(3, 0, 1.0);
  const CsrMatrix A = builder.build();
  const auto expect_row_2 = [&](auto solve) {
    std::vector<double> x(4, 0.0);
    try {
      solve(A, {1.0, 1.0, 1.0, 1.0}, x, IterativeOptions{});
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "gauss_seidel_solve: zero diagonal at row 2");
    }
  };
  expect_row_2(reference_gauss_seidel);
  expect_row_2(linalg::gauss_seidel_solve);
}

TEST(GaussSeidelSweep, ShapeMismatchMessages) {
  std::vector<double> x(3, 0.0);
  try {
    linalg::gauss_seidel_solve(CsrBuilder(3, 2).build(), {1.0, 1.0, 1.0}, x);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "gauss_seidel_solve: matrix not square");
  }
  CsrBuilder builder(3, 3);
  for (std::size_t i = 0; i < 3; ++i) builder.add(i, i, 1.0);
  try {
    linalg::gauss_seidel_solve(builder.build(), {1.0}, x);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "gauss_seidel_solve: vector size mismatch");
  }
}

// The three first-step systems that carry nearly all of perfbench
// steady_reward's query time, each solved from 0 with the default options.
struct SlowSystem {
  const char* spec;
  const char* description;
  std::size_t sweeps;
};

FirstStepSystem slow_system(const std::string& spec, const core::Mrm& model) {
  const std::size_t n = model.num_states();
  const auto& adjacency = model.rates().matrix();
  const auto& labels = model.labels();
  if (spec.rfind("crowd:population=140", 0) == 0) {
    // R[F extinct]: expected reward until extinction, infinite where the
    // hitting probability is below 1.
    const std::vector<bool> target = labels.states_with("extinct");
    std::vector<bool> doomed = graph::backward_reachable(adjacency, target);
    doomed.flip();
    const std::vector<bool> sub_one = graph::backward_reachable(adjacency, doomed);
    std::vector<bool> unknown(n, false);
    std::vector<double> x(n, std::numeric_limits<double>::infinity());
    for (core::StateIndex s = 0; s < n; ++s) {
      if (target[s]) x[s] = 0.0;
      unknown[s] = !target[s] && !sub_one[s];
    }
    return reference_first_step_system(model, unknown, model.state_rewards(), true, x);
  }
  // P0 of Phi U Psi: 1 on Psi, unknowns are Phi && !Psi states that reach Psi.
  const bool crowd = spec.rfind("crowd", 0) == 0;
  std::vector<bool> phi = labels.states_with(crowd ? "extinct" : "clean");
  phi.flip();
  const std::vector<bool> psi = labels.states_with(crowd ? "outbreak" : "epidemic");
  const std::vector<bool> positive = graph::backward_reachable_via(adjacency, phi, psi);
  std::vector<bool> unknown(n, false);
  std::vector<double> x(n, 0.0);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (psi[s]) x[s] = 1.0;
    unknown[s] = !psi[s] && phi[s] && positive[s];
  }
  return reference_first_step_system(model, unknown, {}, false, x);
}

TEST(GaussSeidelSweep, SlowFirstStepSystemsKeepTheirSweepCountsAndBits) {
  const SlowSystem systems[] = {
      {"crowd:population=140", "R[F extinct]", 280},
      {"crowd:population=200", "P[!extinct U outbreak]", 334},
      {"virus:hosts=10", "P[!clean U epidemic]", 947},
  };
  for (const SlowSystem& slow : systems) {
    SCOPED_TRACE(std::string(slow.spec) + " " + slow.description);
    const core::Mrm model = models::make_generated_mrm(slow.spec);
    const FirstStepSystem system = slow_system(slow.spec, model);
    const std::vector<double> start(system.states.size(), 0.0);
    std::vector<double> want = start;
    const IterativeResult expected = reference_gauss_seidel(system.A, system.b, want, {});
    ASSERT_TRUE(expected.converged);
    EXPECT_EQ(expected.iterations, slow.sweeps);
    std::vector<double> got = start;
    const IterativeResult outcome = linalg::gauss_seidel_solve(system.A, system.b, got, {});
    expect_same_outcome(outcome, expected);
    EXPECT_TRUE(same_bits(got, want));
  }
}

// ------------------------------------------------------- first_step_solve

/// A random MRM where every third state carries a self-loop and every
/// transition to a higher state an impulse.
core::Mrm random_self_loop_model(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> rate(0.1, 3.0);
  core::RateMatrixBuilder rates(n);
  core::ImpulseRewardsBuilder impulses(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (s % 3 == 0) rates.add(s, s, rate(rng));
    for (int k = 0; k < 3; ++k) {
      const std::size_t to = rng() % n;
      if (to == s) continue;
      rates.add(s, to, rate(rng));
    }
  }
  const core::RateMatrix built = rates.build();
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& e : built.transitions(s)) {
      if (e.col > s) impulses.add(s, e.col, rate(rng));
    }
  }
  std::vector<double> rho(n);
  for (double& r : rho) r = rate(rng);
  return core::Mrm(core::Ctmc(built, core::Labeling(n)), std::move(rho), impulses.build());
}

TEST(GaussSeidelSweep, FirstStepSolveMatchesTheUnsortedBuildOnSelfLoops) {
  std::size_t solved = 0;
  for (unsigned seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::size_t n = 5 + rng() % 60;
    const core::Mrm model = random_self_loop_model(n, rng);
    const auto& adjacency = model.rates().matrix();
    std::vector<bool> target(n, false);
    for (std::size_t s = 0; s < n; ++s) target[s] = rng() % 5 == 0;
    target[n - 1] = true;

    // Reward until hitting the target (every unknown reaches it surely).
    std::vector<bool> doomed = graph::backward_reachable(adjacency, target);
    doomed.flip();
    const std::vector<bool> sub_one = graph::backward_reachable(adjacency, doomed);
    std::vector<bool> unknown(n, false);
    std::vector<double> cost(n, std::numeric_limits<double>::infinity());
    for (core::StateIndex s = 0; s < n; ++s) {
      if (target[s]) cost[s] = 0.0;
      unknown[s] = !target[s] && !sub_one[s];
    }
    std::vector<double> want = cost;
    reference_first_step_solve(model, unknown, model.state_rewards(), true, want);
    std::vector<double> got = cost;
    checker::first_step_solve(model, unknown, model.state_rewards(), true, got, {});
    EXPECT_TRUE(same_bits(got, want));

    // Reachability probability (boundary 1 on the target, 0 elsewhere).
    std::vector<bool> phi(n, true);
    const std::vector<bool> positive = graph::backward_reachable_via(adjacency, phi, target);
    std::vector<double> probability(n, 0.0);
    for (core::StateIndex s = 0; s < n; ++s) {
      if (target[s]) probability[s] = 1.0;
      unknown[s] = !target[s] && positive[s];
    }
    want = probability;
    reference_first_step_solve(model, unknown, {}, false, want);
    got = probability;
    checker::first_step_solve(model, unknown, {}, false, got, {});
    EXPECT_TRUE(same_bits(got, want));
    solved += static_cast<std::size_t>(std::count(unknown.begin(), unknown.end(), true));
  }
  EXPECT_GT(solved, 0u);
}

TEST(GaussSeidelSweep, FirstStepSolveMatchesOnTheSlowSystems) {
  for (const char* spec : {"crowd:population=140", "crowd:population=200", "virus:hosts=10"}) {
    SCOPED_TRACE(spec);
    const core::Mrm model = models::make_generated_mrm(spec);
    const FirstStepSystem system = slow_system(spec, model);
    std::vector<bool> unknown(model.num_states(), false);
    for (const core::StateIndex s : system.states) unknown[s] = true;
    // Boundary values do not enter the pinned comparison beyond b, which
    // both builders derive from the same x.
    std::vector<double> boundary(model.num_states(), 0.5);
    const bool reward = std::string(spec) == "crowd:population=140";
    const std::vector<double> sojourn = reward ? model.state_rewards() : std::vector<double>{};
    std::vector<double> want = boundary;
    reference_first_step_solve(model, unknown, sojourn, reward, want);
    std::vector<double> got = boundary;
    checker::first_step_solve(model, unknown, sojourn, reward, got, {});
    EXPECT_TRUE(same_bits(got, want));
  }
}

// ---------------------------------------------------------- steady state

/// A random irreducible generator: a Hamiltonian cycle through a random
/// permutation plus random chords, diagonal = -(row sum).
CsrMatrix random_irreducible_generator(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> rate(0.05, 4.0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> exit(n, 0.0);
  CsrBuilder builder(n, n);
  const auto edge = [&](std::size_t from, std::size_t to) {
    const double r = rate(rng);
    builder.add(from, to, r);
    exit[from] += r;
  };
  for (std::size_t i = 0; i < n; ++i) edge(order[i], order[(i + 1) % n]);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t from = rng() % n;
    const std::size_t to = rng() % n;
    if (from != to) edge(from, to);
  }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, -exit[i]);
  return builder.build();
}

void expect_steady_sweeps_agree(const CsrMatrix& Q, const IterativeOptions& options) {
  IterativeResult expected;
  const std::vector<double> want = reference_steady_state(Q, options, expected);
  IterativeResult outcome;
  const std::vector<double> got = linalg::steady_state_gauss_seidel(Q, options, &outcome);
  expect_same_outcome(outcome, expected);
  EXPECT_TRUE(same_bits(got, want));
}

TEST(SteadyStateGaussSeidelSweep, MatchesTheReferenceOnRandomIrreducibleGenerators) {
  for (unsigned seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::size_t n = 2 + rng() % 70;
    expect_steady_sweeps_agree(random_irreducible_generator(n, rng), {});
  }
}

TEST(SteadyStateGaussSeidelSweep, DampedPhaseAndCapMatchTheReference) {
  // A cap of 10 sweeps with an unreachable tolerance runs 5 plain and 5
  // damped sweeps; the pure cycle is the periodic case the damping exists for.
  IterativeOptions options;
  options.max_iterations = 10;
  options.tolerance = 1e-300;
  for (unsigned seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    expect_steady_sweeps_agree(random_irreducible_generator(3 + rng() % 30, rng), options);
  }
  CsrBuilder cycle(4, 4);
  const double rates[] = {1.0, 2.0, 0.5, 3.0};
  for (std::size_t i = 0; i < 4; ++i) {
    cycle.add(i, (i + 1) % 4, rates[i]);
    cycle.add(i, i, -rates[i]);
  }
  expect_steady_sweeps_agree(cycle.build(), options);
  expect_steady_sweeps_agree(cycle.build(), {});
}

TEST(SteadyStateGaussSeidelSweep, ZeroExitRateNamesTheState) {
  CsrBuilder q(3, 3);
  q.add(0, 1, 1.0);
  q.add(0, 0, -1.0);
  q.add(1, 0, 2.0);
  q.add(1, 1, -2.0);
  try {
    linalg::steady_state_gauss_seidel(q.build());
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "steady_state_gauss_seidel: state 2 has zero exit rate; generator is not "
                 "irreducible");
  }
}

}  // namespace
}  // namespace csrlmrm
