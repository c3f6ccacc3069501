#include "oracle/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::sim {

namespace {

void require_masks(const core::Mrm& model, const std::vector<bool>& a,
                   const std::vector<bool>& b) {
  if (a.size() != model.num_states() || b.size() != model.num_states()) {
    throw std::invalid_argument("simulator: satisfaction mask size mismatch");
  }
}

void require_finite_horizon(const logic::Interval& time_bound) {
  if (time_bound.is_upper_unbounded()) {
    throw std::invalid_argument(
        "simulator: until estimation requires a finite time horizon (an unbounded formula "
        "may produce non-terminating sample paths; use the exact P0 solver instead)");
  }
}

Estimate bernoulli_estimate(std::size_t successes, std::size_t samples) {
  const double p = static_cast<double>(successes) / static_cast<double>(samples);
  const double half = 1.96 * std::sqrt(std::max(p * (1.0 - p), 0.0) /
                                       static_cast<double>(samples));
  return {p, half, samples};
}

}  // namespace

MrmSimulator::MrmSimulator(const core::Mrm& model, std::uint64_t seed)
    : model_(&model), rng_(seed) {}

bool MrmSimulator::sample_transition(core::StateIndex state, double& holding_time,
                                     core::StateIndex& successor) {
  const double exit = model_->rates().exit_rate(state);
  if (core::exactly_zero(exit)) return false;
  holding_time = std::exponential_distribution<double>(exit)(rng_);
  // Sample the winner of the transition race proportional to its rate.
  double pick = std::uniform_real_distribution<double>(0.0, exit)(rng_);
  const auto transitions = model_->rates().transitions(state);
  for (const auto& e : transitions) {
    pick -= e.value;
    if (pick <= 0.0) {
      successor = e.col;
      return true;
    }
  }
  successor = transitions.back().col;  // numerical slack: attribute to the last edge
  return true;
}

bool MrmSimulator::sample_until(core::StateIndex start, const std::vector<bool>& sat_phi,
                                const std::vector<bool>& sat_psi,
                                const logic::Interval& time_bound,
                                const logic::Interval& reward_bound) {
  require_masks(*model_, sat_phi, sat_psi);
  require_finite_horizon(time_bound);
  if (start >= model_->num_states()) {
    throw std::invalid_argument("simulator: start state out of range");
  }

  double now = 0.0;
  double reward = 0.0;
  core::StateIndex state = start;
  while (true) {
    if (sat_psi[state]) {
      if (!sat_phi[state]) {
        // A (!Phi && Psi)-state can only witness the formula at the instant
        // of arrival: any tau beyond `now` has a [0,tau) prefix visiting
        // this !Phi state.
        return time_bound.contains(now) && reward_bound.contains(reward);
      }
      // (Phi && Psi): the witness time tau may lie anywhere in the residence
      // window; determine the residence first (infinite when absorbing).
      double holding = std::numeric_limits<double>::infinity();
      core::StateIndex next = state;
      const bool moves = sample_transition(state, holding, next);
      const double window_low = std::max(now, time_bound.lower());
      const double window_high = std::min(now + holding, time_bound.upper());
      if (window_low <= window_high) {
        const double rho = model_->state_reward(state);
        const double reward_low = reward + rho * (window_low - now);
        const double reward_high = reward + rho * (window_high - now);
        // The reward sweeps [reward_low, reward_high] over the window; the
        // formula holds iff that segment meets the reward interval.
        if (reward_high >= reward_bound.lower() && reward_low <= reward_bound.upper()) {
          return true;
        }
      }
      if (!moves) return false;
      now += holding;
      reward += model_->state_reward(state) * holding + model_->impulse_reward(state, next);
      state = next;
    } else {
      if (!sat_phi[state]) return false;  // (!Phi && !Psi): the path is lost
      double holding = 0.0;
      core::StateIndex next = state;
      if (!sample_transition(state, holding, next)) return false;  // stuck in Phi forever
      now += holding;
      reward += model_->state_reward(state) * holding + model_->impulse_reward(state, next);
      state = next;
    }
    if (now > time_bound.upper()) return false;
    // Rewards are non-negative, so overshooting a bounded reward interval is
    // unrecoverable.
    if (!reward_bound.is_upper_unbounded() && reward > reward_bound.upper()) return false;
  }
}

bool MrmSimulator::sample_next(core::StateIndex start, const std::vector<bool>& sat_phi,
                               const logic::Interval& time_bound,
                               const logic::Interval& reward_bound) {
  require_masks(*model_, sat_phi, sat_phi);
  if (start >= model_->num_states()) {
    throw std::invalid_argument("simulator: start state out of range");
  }
  double holding = 0.0;
  core::StateIndex next = start;
  if (!sample_transition(start, holding, next)) return false;
  const double reward_at_jump =
      model_->state_reward(start) * holding + model_->impulse_reward(start, next);
  return sat_phi[next] && time_bound.contains(holding) && reward_bound.contains(reward_at_jump);
}

double MrmSimulator::sample_accumulated_reward(core::StateIndex start, double t) {
  if (start >= model_->num_states()) {
    throw std::invalid_argument("simulator: start state out of range");
  }
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("simulator: t must be finite and >= 0");
  }
  double now = 0.0;
  double reward = 0.0;
  core::StateIndex state = start;
  while (true) {
    double holding = 0.0;
    core::StateIndex next = state;
    if (!sample_transition(state, holding, next) || now + holding >= t) {
      reward += model_->state_reward(state) * (t - now);
      return reward;
    }
    now += holding;
    reward += model_->state_reward(state) * holding + model_->impulse_reward(state, next);
    state = next;
  }
}

Estimate estimate_until(const core::Mrm& model, core::StateIndex start,
                        const std::vector<bool>& sat_phi, const std::vector<bool>& sat_psi,
                        const logic::Interval& time_bound, const logic::Interval& reward_bound,
                        const SimulationOptions& options) {
  if (options.samples == 0) throw std::invalid_argument("estimate_until: need samples > 0");
  obs::ScopedTimer timer("sim.estimate_until");
  obs::counter_add("sim.samples", options.samples);
  MrmSimulator simulator(model, options.seed);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < options.samples; ++i) {
    successes += simulator.sample_until(start, sat_phi, sat_psi, time_bound, reward_bound);
  }
  return bernoulli_estimate(successes, options.samples);
}

Estimate estimate_performability(const core::Mrm& model, core::StateIndex start, double t,
                                 double r, const SimulationOptions& options) {
  if (options.samples == 0) {
    throw std::invalid_argument("estimate_performability: need samples > 0");
  }
  obs::ScopedTimer timer("sim.estimate_performability");
  obs::counter_add("sim.samples", options.samples);
  MrmSimulator simulator(model, options.seed);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < options.samples; ++i) {
    successes += simulator.sample_accumulated_reward(start, t) <= r;
  }
  return bernoulli_estimate(successes, options.samples);
}

Estimate estimate_expected_reward(const core::Mrm& model, core::StateIndex start, double t,
                                  const SimulationOptions& options) {
  if (options.samples == 0) {
    throw std::invalid_argument("estimate_expected_reward: need samples > 0");
  }
  obs::ScopedTimer timer("sim.estimate_expected_reward");
  obs::counter_add("sim.samples", options.samples);
  MrmSimulator simulator(model, options.seed);
  double sum = 0.0;
  double sum_squares = 0.0;
  for (std::size_t i = 0; i < options.samples; ++i) {
    const double y = simulator.sample_accumulated_reward(start, t);
    sum += y;
    sum_squares += y * y;
  }
  const double n = static_cast<double>(options.samples);
  const double mean = sum / n;
  const double variance = std::max(0.0, sum_squares / n - mean * mean);
  return {mean, 1.96 * std::sqrt(variance / n), options.samples};
}

}  // namespace csrlmrm::sim
