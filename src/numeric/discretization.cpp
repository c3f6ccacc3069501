#include "numeric/discretization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

bool is_integral(double v, double scale = 1.0) {
  return std::abs(v - std::round(v)) <= 1e-9 * std::max(1.0, std::abs(scale));
}

/// dst[k] += a * src[k] over a contiguous range — the level-sweep kernel,
/// vectorized explicitly (no per-iteration index shifting).
void shifted_axpy(double* dst, const double* src, std::size_t count, double a) {
  core::simd::axpy(dst, src, count, a);
}

}  // namespace

unsigned find_integer_scale(const std::vector<double>& values, unsigned max_scale) {
  for (unsigned f = 1; f <= max_scale; ++f) {
    bool all_integral = true;
    for (double v : values) {
      if (!is_integral(v * f, v * f)) {
        all_integral = false;
        break;
      }
    }
    if (all_integral) return f;
  }
  throw std::domain_error(
      "find_integer_scale: no integer factor <= " + std::to_string(max_scale) +
      " makes the state rewards integral; rescale the reward structure manually");
}

UntilDiscretizationResult until_probability_discretization(
    const core::Mrm& transformed, const std::vector<bool>& psi, core::StateIndex start,
    double t, double r, const DiscretizationOptions& options) {
  obs::ScopedTimer timer("discretization.until");
  obs::counter_add("discretization.calls");
  const std::size_t n = transformed.num_states();
  if (psi.size() != n) {
    throw std::invalid_argument("until_probability_discretization: psi mask size mismatch");
  }
  if (start >= n) {
    throw std::invalid_argument("until_probability_discretization: start out of range");
  }
  if (!(t >= 0.0) || !std::isfinite(t) || !(r >= 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument(
        "until_probability_discretization: t and r must be finite and >= 0");
  }
  const double d = options.step;
  if (!(d > 0.0) || !std::isfinite(d)) {
    throw std::invalid_argument("until_probability_discretization: step must be positive");
  }

  UntilDiscretizationResult result;
  if (core::exactly_zero(t)) {
    result.probability = psi[start] ? 1.0 : 0.0;
    return result;
  }

  const double max_exit = transformed.rates().max_exit_rate();
  if (max_exit * d >= 1.0) {
    throw std::invalid_argument(
        "until_probability_discretization: step too coarse (d * max exit rate = " +
        std::to_string(max_exit * d) + " >= 1); choose d < " + std::to_string(1.0 / max_exit));
  }
  if (!is_integral(t / d, t / d)) {
    throw std::invalid_argument(
        "until_probability_discretization: t must be an integer multiple of the step d");
  }
  const std::size_t time_steps = static_cast<std::size_t>(std::llround(t / d));

  // Scale rational state rewards (and with them the impulses and the bound)
  // to integers, as section 4.4.1 prescribes.
  const unsigned scale = find_integer_scale(transformed.state_rewards(),
                                            options.max_reward_scale);
  const double fscale = static_cast<double>(scale);

  // Integer level advance per time step of residence in each state.
  std::vector<std::size_t> residence_shift(n, 0);
  for (core::StateIndex s = 0; s < n; ++s) {
    residence_shift[s] =
        static_cast<std::size_t>(std::llround(transformed.state_reward(s) * fscale));
  }

  // Grid sizing, checked in floating point *before* the integer cast: a
  // large r or tiny d would overflow the cast and/or attempt an n * levels
  // allocation far beyond memory, dying with bad_alloc instead of a
  // diagnosis.
  const double levels_estimate = std::floor(r * fscale / d + 1e-9) + 1.0;  // levels 0..R
  const double cells_estimate = static_cast<double>(n) * levels_estimate;
  if (!(cells_estimate <= static_cast<double>(options.max_grid_cells))) {
    throw std::invalid_argument(
        "until_probability_discretization: reward grid of " + std::to_string(n) +
        " states x " + std::to_string(levels_estimate) +
        " levels exceeds max_grid_cells = " + std::to_string(options.max_grid_cells) +
        "; choose a coarser step d, a smaller reward bound r, or the uniformization engine");
  }
  const std::size_t levels = static_cast<std::size_t>(levels_estimate);
  const std::size_t non_zeros = transformed.rates().matrix().non_zeros();

  // Incoming adjacency per target state: (source, R(source,target)*d,
  // level shift = rho(source) + iota(source,target)/d). Arcs whose shift
  // falls beyond the level cap can never deposit mass inside the grid, so
  // they are dropped here instead of being re-tested every time step.
  struct Incoming {
    core::StateIndex source;
    double probability;     // R(s',s) * d
    std::size_t shift;      // residence + impulse levels consumed
  };
  std::vector<std::vector<Incoming>> incoming(n);
  for (core::StateIndex s_from = 0; s_from < n; ++s_from) {
    for (const auto& e : transformed.rates().transitions(s_from)) {
      const double impulse = transformed.impulse_reward(s_from, e.col);
      const double impulse_levels = impulse * fscale / d;
      if (!is_integral(impulse_levels, impulse_levels)) {
        throw std::invalid_argument(
            "until_probability_discretization: impulse reward " + std::to_string(impulse) +
            " is not a multiple of the (scaled) step; choose d dividing the impulse rewards");
      }
      const std::size_t shift =
          residence_shift[s_from] + static_cast<std::size_t>(std::llround(impulse_levels));
      if (shift >= levels) continue;
      incoming[e.col].push_back({s_from, e.value * d, shift});
    }
  }

  // Probability-mass formulation of Algorithm 4.6: cur[s * levels + k] is the
  // probability of being in s with accumulated reward in level k after the
  // current number of steps (the paper's density F relates by a factor 1/d).
  std::vector<double> cur(n * levels, 0.0);
  std::vector<double> next(n * levels, 0.0);
  if (residence_shift[start] < levels) {
    cur[start * levels + residence_shift[start]] = 1.0;
  }

  // Invariant per-state factors, hoisted out of the time loop: the stay
  // probability 1 - E(s) d and whether the residence term can deposit mass
  // at all (positive stay probability, shift below the level cap).
  std::vector<double> stay(n, 0.0);
  std::vector<bool> residence_active(n, false);
  for (core::StateIndex s = 0; s < n; ++s) {
    stay[s] = 1.0 - transformed.rates().exit_rate(s) * d;
    residence_active[s] = stay[s] > 0.0 && residence_shift[s] < levels;
  }

  // Conservative per-state emptiness of the current grid rows: a row only
  // becomes nonzero by receiving mass from a nonzero row, so propagating one
  // boolean per state along the same residence/incoming structure (O(degree)
  // per row, not O(levels)) lets the sweep skip every shifted-add sourced
  // from a still-empty row — the analogue of skipping a zero entry of x in
  // a sparse x^T A. All grid entries are non-negative, so skipping
  // an empty source only omits += 0.0 terms and the result stays
  // bitwise-identical. Until the probability mass reaches a state (graph
  // distance many steps), its whole row sweep collapses to a fill.
  std::vector<char> row_nonzero(n, 0);
  std::vector<char> next_nonzero(n, 0);
  if (residence_shift[start] < levels) row_nonzero[start] = 1;

  // The level sweep: each target state's next_row is written by exactly one
  // task, in residence-then-incoming order, so the parallel sweep is
  // bitwise-identical to the serial one for every thread count.
  const unsigned threads = parallel::choose_thread_count(
      options.threads, n > 0 ? time_steps * levels * (1 + non_zeros / n) : 0);
  for (std::size_t step = 1; step < time_steps; ++step) {
    parallel::parallel_for(n, threads, [&](std::size_t begin, std::size_t end) {
      for (core::StateIndex s = begin; s < end; ++s) {
        double* next_row = next.data() + s * levels;
        char touched = 0;
        // Residence term: stay in s, advance reward by rho(s) levels.
        if (residence_active[s] && row_nonzero[s]) {
          std::fill(next_row, next_row + residence_shift[s], 0.0);
          const double* cur_row = cur.data() + s * levels;
          double* dst = next_row + residence_shift[s];
          const std::size_t count = levels - residence_shift[s];
          core::simd::scale(dst, cur_row, count, stay[s]);
          touched = 1;
        } else {
          std::fill(next_row, next_row + levels, 0.0);
        }
        // Transition terms: arrive from s', consuming rho(s') + iota levels.
        for (const Incoming& in : incoming[s]) {
          if (!row_nonzero[in.source]) continue;
          shifted_axpy(next_row + in.shift, cur.data() + in.source * levels,
                       levels - in.shift, in.probability);
          touched = 1;
        }
        next_nonzero[s] = touched;
      }
    });
    cur.swap(next);
    row_nonzero.swap(next_nonzero);
  }

  double probability = 0.0;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (!psi[s]) continue;
    const double* row = cur.data() + s * levels;
    for (std::size_t k = 0; k < levels; ++k) probability += row[k];
  }

  result.probability = probability;
  // O(d) error band (see UntilDiscretizationResult::error_bound): discarded
  // multi-jump mass per step plus one step of boundary quantization.
  result.error_bound =
      std::min(1.0, 0.5 * t * max_exit * max_exit * d + max_exit * d);
  result.time_steps = time_steps;
  result.reward_levels = levels;
  result.reward_scale = scale;
  obs::counter_add("discretization.time_steps", time_steps);
  obs::gauge_max("discretization.reward_levels", static_cast<double>(levels));
  obs::gauge_max("discretization.reward_scale", static_cast<double>(scale));
  return result;
}

}  // namespace csrlmrm::numeric
