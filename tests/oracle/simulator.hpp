// Discrete-event Monte Carlo simulation of MRMs.
//
// The thesis (1.2) names simulation as the alternative to exact model
// checking; this module provides it as an independent oracle: paths are
// sampled from the exponential-race semantics of section 2.4, rewards
// accumulate per Definition 3.3 (state rates + transition impulses), and
// CSRL path formulas are evaluated per Definition 3.6 on each sampled path.
//
// Unlike the numerical until engines (restricted to I = [0,t]/[t,t] and
// J = [0,r]), the estimators accept arbitrary closed intervals — which makes
// them the reference for the "general time and reward bounds" the thesis
// lists as future work.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/mrm.hpp"
#include "logic/interval.hpp"

namespace csrlmrm::sim {

/// Sampling controls.
struct SimulationOptions {
  std::size_t samples = 100000;
  std::uint64_t seed = 1;
};

/// A Monte Carlo estimate with a 95% confidence half-width (normal
/// approximation).
struct Estimate {
  double mean = 0.0;
  double half_width_95 = 0.0;
  std::size_t samples = 0;
};

/// Stateful path sampler over one MRM. The model must outlive the simulator.
class MrmSimulator {
 public:
  MrmSimulator(const core::Mrm& model, std::uint64_t seed);

  /// One Bernoulli sample of the path formula Phi U_J^I Psi from `start`
  /// (Definition 3.6 semantics, arbitrary closed intervals).
  bool sample_until(core::StateIndex start, const std::vector<bool>& sat_phi,
                    const std::vector<bool>& sat_psi, const logic::Interval& time_bound,
                    const logic::Interval& reward_bound);

  /// One Bernoulli sample of the path formula X_J^I Phi from `start`.
  bool sample_next(core::StateIndex start, const std::vector<bool>& sat_phi,
                   const logic::Interval& time_bound, const logic::Interval& reward_bound);

  /// One sample of the accumulated reward Y(t) from `start`.
  double sample_accumulated_reward(core::StateIndex start, double t);

 private:
  /// Samples the next transition of `state`: returns false for absorbing
  /// states, else fills the holding time and successor.
  bool sample_transition(core::StateIndex state, double& holding_time,
                         core::StateIndex& successor);

  const core::Mrm* model_;
  std::mt19937_64 rng_;
};

/// Estimates P(start, Phi U_J^I Psi) by simple Monte Carlo.
Estimate estimate_until(const core::Mrm& model, core::StateIndex start,
                        const std::vector<bool>& sat_phi, const std::vector<bool>& sat_psi,
                        const logic::Interval& time_bound, const logic::Interval& reward_bound,
                        const SimulationOptions& options = {});

/// Estimates the performability distribution value Pr{Y(t) <= r}
/// (Definition 3.4).
Estimate estimate_performability(const core::Mrm& model, core::StateIndex start, double t,
                                 double r, const SimulationOptions& options = {});

/// Estimates the expected accumulated reward E[Y(t)].
Estimate estimate_expected_reward(const core::Mrm& model, core::StateIndex start, double t,
                                  const SimulationOptions& options = {});

}  // namespace csrlmrm::sim
