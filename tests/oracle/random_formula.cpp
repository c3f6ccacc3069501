#include "oracle/random_formula.hpp"

#include <random>

namespace csrlmrm::models {

namespace {

using logic::Comparison;
using logic::FormulaPtr;
using logic::Interval;

class Generator {
 public:
  Generator(std::uint32_t seed, const RandomFormulaConfig& config)
      : rng_(seed), config_(config) {}

  FormulaPtr state_formula(unsigned depth) {
    const double roll = uniform();
    if (depth == 0 || roll < 0.35) return leaf();
    if (roll < 0.5) return logic::make_not(state_formula(depth - 1));
    if (roll < 0.65) {
      return logic::make_or(state_formula(depth - 1), state_formula(depth - 1));
    }
    if (roll < 0.75) {
      return logic::make_and(state_formula(depth - 1), state_formula(depth - 1));
    }
    if (roll < 0.75 + config_.probabilistic_probability) return probabilistic(depth - 1);
    return leaf();
  }

 private:
  FormulaPtr leaf() {
    switch (pick(5)) {
      case 0:
        return logic::make_true();
      case 1:
        return logic::make_false();
      case 2:
        return logic::make_atomic("a");
      case 3:
        return logic::make_atomic("b");
      default:
        return logic::make_atomic("c");
    }
  }

  FormulaPtr probabilistic(unsigned depth) {
    const Comparison op = static_cast<Comparison>(pick(4));
    const double bound = uniform();
    switch (pick(4)) {
      case 0:
        return logic::make_steady(op, bound, state_formula(depth));
      case 1: {
        // Next with arbitrary closed intervals (fully supported).
        const double t1 = uniform() * config_.max_time_bound;
        const double t2 = t1 + uniform() * config_.max_time_bound;
        const double r1 = uniform() * config_.max_reward_bound;
        const double r2 = r1 + uniform() * config_.max_reward_bound;
        return logic::make_prob_next(op, bound, Interval(t1, t2), Interval(r1, r2),
                                     state_formula(depth));
      }
      case 2: {
        // Reward-bounded until: time [0,t], reward [0,r].
        const double t = 0.25 + uniform() * config_.max_time_bound;
        const double r = 0.5 + uniform() * config_.max_reward_bound;
        return logic::make_prob_until(op, bound, logic::up_to(t), logic::up_to(r),
                                      state_formula(depth), state_formula(depth));
      }
      default: {
        // Reward-unbounded until with [0,t] or [t1,t2] (both supported).
        const double t1 = pick(2) == 0 ? 0.0 : uniform() * config_.max_time_bound;
        const double t2 = t1 + 0.25 + uniform() * config_.max_time_bound;
        return logic::make_prob_until(op, bound, Interval(t1, t2), Interval{},
                                      state_formula(depth), state_formula(depth));
      }
    }
  }

  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }
  unsigned pick(unsigned n) {
    return std::uniform_int_distribution<unsigned>(0, n - 1)(rng_);
  }

  std::mt19937 rng_;
  RandomFormulaConfig config_;
};

}  // namespace

logic::FormulaPtr make_random_formula(std::uint32_t seed, const RandomFormulaConfig& config) {
  Generator generator(seed, config);
  // Force at least one probabilistic operator at the top so the formula
  // exercises more than the boolean fragment... half of the time.
  return generator.state_formula(config.max_depth);
}

}  // namespace csrlmrm::models
