// Lumping ablation: checking the explicit-state NMR model (2^N * 2 states)
// directly vs lumping it to the (N+2)-state counter abstraction first.
// Quantifies the classic state-space-collapse argument for the systems the
// thesis evaluates.
#include <chrono>
#include <cstdio>

#include "bench_support.hpp"
#include "checker/steady.hpp"
#include "models/explicit_nmr.hpp"
#include "oracle/lumping.hpp"

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}
}  // namespace

int main() {
  using namespace csrlmrm;
  benchsupport::print_header(
      "Lumping - explicit per-module NMR vs lumped counter abstraction",
      "steady-state pi(failed) and a reward-bounded until, before/after lumping");

  std::printf("%-3s  %-7s  %-8s  %-10s  %-10s  %-10s  %-12s\n", "N", "states", "blocks",
              "T_lump(s)", "T_full(s)", "T_quot(s)", "|dP steady|");
  for (unsigned modules : {4u, 6u, 8u, 10u, 12u, 14u}) {
    models::TmrConfig config;
    config.num_modules = modules;
    config.variable_failure_rate = true;
    const core::Mrm explicit_model = models::make_explicit_nmr(config);

    const auto lump_begin = std::chrono::steady_clock::now();
    const core::Lumping lumping = core::compute_lumping(explicit_model);
    const core::Mrm quotient = core::build_quotient(explicit_model, lumping);
    const double lump_seconds = seconds_since(lump_begin);

    const auto failed_full = explicit_model.labels().states_with("failed");
    const auto full_begin = std::chrono::steady_clock::now();
    const double pi_full =
        checker::steady_state_probability_of_set(explicit_model, failed_full)[0];
    const double full_seconds = seconds_since(full_begin);

    const auto failed_quotient = quotient.labels().states_with("failed");
    const auto quotient_begin = std::chrono::steady_clock::now();
    const double pi_quotient = checker::steady_state_probability_of_set(
        quotient, failed_quotient)[lumping.block_of[0]];
    const double quotient_seconds = seconds_since(quotient_begin);

    std::printf("%-3u  %-7zu  %-8zu  %-10.4f  %-10.4f  %-10.4f  %-12.2e\n", modules,
                explicit_model.num_states(), lumping.num_blocks, lump_seconds, full_seconds,
                quotient_seconds, std::abs(pi_full - pi_quotient));
  }
  std::printf(
      "\nExpected: blocks = N+2 regardless of the 2^(N+1) explicit states; identical\n"
      "measures; the quotient analysis time is flat while the full one grows\n"
      "exponentially — lump once, check many properties.\n");
  return 0;
}
