#include "oracle/path.hpp"

#include <cmath>
#include <stdexcept>
#include "core/approx.hpp"

namespace csrlmrm::core {

TimedPath::TimedPath(std::vector<PathStep> steps) : steps_(std::move(steps)) {
  if (steps_.empty()) throw std::invalid_argument("TimedPath: empty step list");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const double t = steps_[i].residence_time;
    if (std::isnan(t) || t <= 0.0) {
      throw std::invalid_argument("TimedPath: residence time of step " + std::to_string(i) +
                                  " must be positive");
    }
    if (std::isinf(t) && i + 1 != steps_.size()) {
      throw std::invalid_argument("TimedPath: only the final step may have infinite residence");
    }
  }
}

StateIndex TimedPath::state(std::size_t i) const {
  if (i >= steps_.size()) throw std::out_of_range("TimedPath::state: index out of range");
  return steps_[i].state;
}

double TimedPath::residence_time(std::size_t i) const {
  if (i >= steps_.size()) {
    throw std::out_of_range("TimedPath::residence_time: index out of range");
  }
  return steps_[i].residence_time;
}

StateIndex TimedPath::state_at(double t) const {
  if (t < 0.0) throw std::out_of_range("TimedPath::state_at: negative time");
  double cumulative = 0.0;
  for (const PathStep& step : steps_) {
    cumulative += step.residence_time;
    if (t <= cumulative) return step.state;
  }
  throw std::out_of_range("TimedPath::state_at: time beyond recorded prefix");
}

double TimedPath::accumulated_reward(const Mrm& model, double t) const {
  if (t < 0.0) throw std::out_of_range("TimedPath::accumulated_reward: negative time");
  double cumulative = 0.0;
  double reward = 0.0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const PathStep& step = steps_[i];
    if (i + 1 < steps_.size() && exactly_zero(model.rates().rate(step.state, steps_[i + 1].state))) {
      throw std::invalid_argument("TimedPath::accumulated_reward: step " + std::to_string(i) +
                                  " is not a transition of the model");
    }
    if (t <= cumulative + step.residence_time) {
      // Occupying sigma[i] at time t: partial residence reward only.
      reward += model.state_reward(step.state) * (t - cumulative);
      return reward;
    }
    reward += model.state_reward(step.state) * step.residence_time;
    cumulative += step.residence_time;
    if (i + 1 < steps_.size()) {
      reward += model.impulse_reward(step.state, steps_[i + 1].state);
    }
  }
  throw std::out_of_range("TimedPath::accumulated_reward: time beyond recorded prefix");
}

bool TimedPath::is_finite_path() const {
  return std::isinf(steps_.back().residence_time);
}

}  // namespace csrlmrm::core
