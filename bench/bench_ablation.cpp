// Ablations for the design choices DESIGN.md calls out:
//  1. (k,j)-signature aggregation before Omega (section 4.4.2's
//     recomputation avoidance) vs one Omega call per stored path.
//  2. Linear-solver choice for the steady-state/BSCC machinery:
//     Gauss-Seidel (the thesis's choice) vs Jacobi vs dense elimination.
#include <chrono>
#include <cstdio>

#include "bench_support.hpp"
#include "checker/steady.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/gauss_seidel.hpp"
#include "models/tmr.hpp"
#include "oracle/ctmc_measures.hpp"
#include "oracle/jacobi.hpp"
#include "oracle/linalg_reference.hpp"

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}
}  // namespace

int main() {
  using namespace csrlmrm;

  benchsupport::print_header("Ablation 1 - path-signature aggregation before Omega",
                             "TMR, P[Sup U[0,t][0,3000] failed], w = 1e-11");
  {
    const core::Mrm model = models::make_tmr(models::TmrConfig{});
    benchsupport::UntilExperiment experiment(model, "Sup", "failed");
    std::printf("%-5s  %-12s  %-12s  %-10s  %-10s  %-10s\n", "t", "T_aggr(s)", "T_perpath(s)",
                "paths", "classes", "|dP|");
    for (double t : {100.0, 200.0, 300.0}) {
      const auto aggregated = experiment.uniformization(0, t, 3000.0, 1e-11, true);
      const auto per_path = experiment.uniformization(0, t, 3000.0, 1e-11, false);
      std::printf("%-5.0f  %-12.4f  %-12.4f  %-10zu  %-10zu  %-10.2e\n", t,
                  aggregated.seconds, per_path.seconds, per_path.paths_stored,
                  aggregated.signature_classes,
                  std::abs(aggregated.probability - per_path.probability));
    }
    std::printf("\nExpected: identical P (|dP| ~ 1e-16); aggregation calls Omega once per\n"
                "signature class instead of once per path, so it wins once paths >> classes.\n\n");
  }

  benchsupport::print_header("Ablation 2 - linear solver for steady-state analysis",
                             "41-module NMR (43 states), pi Q = 0 via three solvers");
  {
    models::TmrConfig config;
    config.num_modules = 41;
    const core::Mrm model = models::make_tmr(config);

    auto timed_steady = [&](const char* name, auto&& run) {
      const auto begin = std::chrono::steady_clock::now();
      const double value = run();
      std::printf("%-16s  pi(failed) = %-22.15g  T = %.4fs\n", name, value,
                  seconds_since(begin));
    };

    const auto failed = model.labels().states_with("failed");
    timed_steady("Gauss-Seidel", [&] {
      return checker::steady_state_probability_of_set(model, failed)[0];
    });

    // Jacobi / dense ablations solve the same irreducible system directly:
    // replace the last balance equation with the normalization constraint.
    const auto generator = core::generator(model.rates());
    const std::size_t n = model.num_states();
    auto dense_system = [&] {
      auto a = generator.transposed().to_dense();
      std::vector<double> b(n, 0.0);
      for (std::size_t c = 0; c < n; ++c) a[n - 1][c] = 1.0;
      b[n - 1] = 1.0;
      return std::pair{a, b};
    };
    timed_steady("dense Gaussian", [&] {
      auto [a, b] = dense_system();
      const auto pi = linalg::dense_solve(a, b);
      double mass = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        if (failed[s]) mass += pi[s];
      }
      return mass;
    });
    timed_steady("Jacobi", [&] {
      // Jacobi on the normalized system diverges for this generator (no
      // diagonal dominance after the normalization row), so run it on the
      // regularized form (I + Q^T/Lambda) like a power iteration.
      const double lambda = model.rates().max_exit_rate();
      linalg::CsrBuilder builder(n, n);
      const auto qt = generator.transposed();
      for (std::size_t row = 0; row < n; ++row) {
        for (const auto& e : qt.row(row)) builder.add(row, e.col, e.value / lambda);
      }
      const auto m = builder.build();  // pi' = pi (I + Q/Lambda) fixpoint
      std::vector<double> pi(n, 1.0 / static_cast<double>(n));
      for (int iteration = 0; iteration < 200000; ++iteration) {
        auto next = multiply(m, pi);
        double delta = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          next[s] += pi[s];
          delta = std::max(delta, std::abs(next[s] - pi[s]));
        }
        double total = 0.0;
        for (const double v : next) total += v;
        for (double& v : next) v /= total;
        pi.swap(next);
        if (delta < 1e-13) break;
      }
      double mass = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        if (failed[s]) mass += pi[s];
      }
      return mass;
    });
    std::printf("\nExpected: all three agree to ~1e-10; Gauss-Seidel needs far fewer\n"
                "sweeps than the power/Jacobi iteration on this stiff chain.\n\n");
  }

  benchsupport::print_header(
      "Ablation 3 - depth truncation (eq. 4.3) vs path truncation (eq. 4.4)",
      "TMR, P[Sup U[0,300][0,3000] failed]; depth N sweeps vs w sweeps");
  {
    const core::Mrm model = models::make_tmr(models::TmrConfig{});
    const auto sup = model.labels().states_with("Sup");
    const auto failed = model.labels().states_with("failed");
    std::vector<bool> absorb(model.num_states());
    std::vector<bool> dead(model.num_states());
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      absorb[s] = !sup[s] || failed[s];
      dead[s] = !sup[s] && !failed[s];
    }
    numeric::UniformizationUntilEngine engine(core::make_absorbing(model, absorb), failed,
                                              dead);
    const double t = 300.0;
    const double r = 3000.0;

    std::printf("%-24s  %-22s  %-13s  %-10s\n", "truncation", "P", "E", "nodes");
    for (const std::size_t depth : {10u, 20u, 30u, 40u, 60u}) {
      numeric::PathGeneratorOptions options;
      options.truncation_probability = 1e-14;  // effectively depth-only cut
      options.depth_truncation = depth;
      const auto result = engine.compute(0, t, r, options);
      std::printf("depth N = %-14zu  %-22.17g  %-13.6e  %-10zu\n", depth, result.probability,
                  result.error_bound, result.nodes_expanded);
    }
    for (const double w : {1e-8, 1e-10, 1e-12}) {
      numeric::PathExplorerOptions options;
      options.truncation_probability = w;
      const auto result = engine.compute(0, t, r, options);
      std::printf("path w = %-15.0e  %-22.17g  %-13.6e  %-10zu\n", w, result.probability,
                  result.error_bound, result.nodes_expanded);
    }
    std::printf(
        "\nExpected: for a target error, path truncation (the thesis's choice) visits\n"
        "fewer nodes than a uniform depth cut, because it spends depth only where\n"
        "path probability warrants it (Qureshi & Sanders' observation in [Qur96]).\n");
  }
  return 0;
}
