#include "oracle/random_mrm.hpp"

#include <random>

namespace csrlmrm::models {

core::Mrm make_random_mrm(std::uint32_t seed, const RandomMrmConfig& config) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  const std::size_t n = config.num_states;
  core::RateMatrixBuilder rates(n);
  core::ImpulseRewardsBuilder impulses(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    for (core::StateIndex s2 = 0; s2 < n; ++s2) {
      if (s == s2) continue;  // keep iota(s,s) = 0 trivially satisfied
      if (uniform(rng) >= config.edge_probability) continue;
      // Rate in (0, max]: avoid zero so the edge really exists.
      const double rate = config.max_rate * std::max(uniform(rng), 1e-3);
      rates.add(s, s2, rate);
      if (uniform(rng) < config.impulse_probability) {
        // Impulse as a positive multiple of 0.25.
        const int quarters =
            1 + static_cast<int>(uniform(rng) * (config.max_impulse * 4.0 - 1.0));
        impulses.add(s, s2, 0.25 * quarters);
      }
    }
  }

  core::Labeling labels(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    for (const char* ap : {"a", "b", "c"}) {
      if (uniform(rng) < config.label_probability) labels.add(s, ap);
    }
  }

  std::vector<double> state_rewards(n, 0.0);
  std::uniform_int_distribution<unsigned> reward(0, config.max_state_reward);
  for (core::StateIndex s = 0; s < n; ++s) state_rewards[s] = static_cast<double>(reward(rng));

  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), std::move(state_rewards),
                   impulses.build());
}

}  // namespace csrlmrm::models
