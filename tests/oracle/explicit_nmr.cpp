#include "oracle/explicit_nmr.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace csrlmrm::models {

core::StateIndex explicit_nmr_state(unsigned failed_mask, bool voter_down,
                                    unsigned num_modules) {
  const unsigned masks = 1u << num_modules;
  return static_cast<core::StateIndex>(failed_mask + (voter_down ? masks : 0u));
}

core::Mrm make_explicit_nmr(const TmrConfig& config) {
  if (config.num_modules < 1 || config.num_modules > 16) {
    throw std::invalid_argument("make_explicit_nmr: num_modules must be in 1..16");
  }
  const unsigned modules = config.num_modules;
  const unsigned masks = 1u << modules;
  const std::size_t n = 2u * masks;

  const double voter_down_reward =
      config.voter_down_reward > 0.0
          ? config.voter_down_reward
          : config.base_reward + config.degraded_step * static_cast<double>(modules) + 2.0;

  core::RateMatrixBuilder rates(n);
  core::ImpulseRewardsBuilder impulses(n);
  core::Labeling labels(n);
  std::vector<double> rewards(n, 0.0);

  for (unsigned mask = 0; mask < masks; ++mask) {
    const unsigned failed = static_cast<unsigned>(std::popcount(mask));
    const unsigned working = modules - failed;
    const core::StateIndex up = explicit_nmr_state(mask, false, modules);
    const core::StateIndex down = explicit_nmr_state(mask, true, modules);

    // Individual module failures (this is the "variable" total rate:
    // working * module_failure_rate).
    for (unsigned m = 0; m < modules; ++m) {
      if (mask & (1u << m)) continue;
      rates.add(up, explicit_nmr_state(mask | (1u << m), false, modules),
                config.module_failure_rate);
    }
    // One repair facility: the lowest-index failed module is being fixed.
    if (mask != 0) {
      const unsigned lowest = mask & (~mask + 1u);  // lowest set bit
      rates.add(up, explicit_nmr_state(mask & ~lowest, false, modules),
                config.module_repair_rate);
      impulses.add(up, explicit_nmr_state(mask & ~lowest, false, modules),
                   config.module_repair_impulse);
    }
    // Voter failure; repair restores the system "as new".
    rates.add(up, down, config.voter_failure_rate);
    rates.add(down, explicit_nmr_state(0, false, modules), config.voter_repair_rate);
    impulses.add(down, explicit_nmr_state(0, false, modules), config.voter_repair_impulse);

    // Labels and rewards depend only on the failed count / voter condition,
    // exactly as in the counter model.
    labels.add(up, std::to_string(working) + "up");
    if (failed == 0) labels.add(up, "allUp");
    if (working >= 2) {
      labels.add(up, "Sup");
    } else {
      labels.add(up, "failed");
    }
    rewards[up] = config.base_reward + config.degraded_step * static_cast<double>(failed);

    labels.add(down, "vdown");
    labels.add(down, "failed");
    rewards[down] = voter_down_reward;
  }

  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), std::move(rewards),
                   impulses.build());
}

}  // namespace csrlmrm::models
