#include "oracle/path_explorer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "numeric/conditional.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"
#include "oracle/numeric_reference.hpp"

namespace csrlmrm::numeric {

namespace {

/// Hash for a concatenated (k, j) signature vector.
struct SignatureHash {
  std::size_t operator()(const std::vector<std::uint32_t>& v) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (std::uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace

UniformizationUntilEngine::UniformizationUntilEngine(const core::Mrm& transformed,
                                                     std::vector<bool> psi,
                                                     std::vector<bool> dead)
    : sig_(transformed, std::move(psi), std::move(dead)),
      log_probability_(sig_.adjacency.size()) {
  for (std::size_t s = 0; s < sig_.adjacency.size(); ++s) {
    log_probability_[s].reserve(sig_.adjacency[s].size());
    for (const SignatureTransition& edge : sig_.adjacency[s]) {
      log_probability_[s].push_back(std::log(edge.probability));
    }
  }
}

UntilUniformizationResult UniformizationUntilEngine::compute(
    core::StateIndex start, double t, double r, const PathGeneratorOptions& options) const {
  obs::ScopedTimer timer("uniformization.until");
  obs::counter_add("uniformization.calls");
  const std::size_t n = sig_.num_states;
  if (start >= n) {
    throw std::invalid_argument("UniformizationUntilEngine::compute: start out of range");
  }
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("UniformizationUntilEngine::compute: t must be finite, >= 0");
  }
  if (!(r >= 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument("UniformizationUntilEngine::compute: r must be finite, >= 0");
  }
  if (!(options.truncation_probability > 0.0) || !(options.truncation_probability < 1.0)) {
    throw std::invalid_argument(
        "UniformizationUntilEngine::compute: truncation probability must be in (0,1)");
  }

  UntilUniformizationResult result;
  if (sig_.dead[start]) return result;
  if (core::exactly_zero(t)) {
    // inf(I) = inf(J) = 0: the formula holds immediately iff start |= Psi.
    result.probability = sig_.psi[start] ? 1.0 : 0.0;
    return result;
  }

  const double mean = sig_.lambda * t;
  const double log_mean = std::log(mean);
  const double log_w = std::log(options.truncation_probability);
  const SharedPoissonTail poisson_tail(mean, poisson_hard_cap(mean) + 2);

  const std::size_t num_k = sig_.distinct_state_rewards.size();
  const std::size_t num_j = sig_.distinct_impulse_rewards.size();
  RewardStructureContext context(sig_.distinct_state_rewards, sig_.distinct_impulse_rewards);

  // signature = k ++ j, accumulated path probability P(sigma, t).
  std::unordered_map<std::vector<std::uint32_t>, double, SignatureHash> classes;
  std::vector<std::uint32_t> signature(num_k + num_j, 0);

  // log P(sigma, t) = log_poisson(n) + sum of log 1-step probabilities; we
  // carry the two addends separately so the error bound can recover
  // P(sigma) = exp(log_weight) without dividing tiny numbers.
  struct Frame {
    core::StateIndex state;
    std::size_t depth;        // n = number of transitions taken
    double log_poisson;       // log PoissonPmf(depth; mean)
    double log_weight;        // log prod of 1-step probabilities
  };

  std::size_t nodes = 0;
  std::size_t visited = 0;

  // Recursive lambda via explicit Y-combinator style to keep undo logic tight.
  auto explore = [&](auto&& self, const Frame& frame) -> void {
    ++visited;
    if (sig_.dead[frame.state]) return;  // (!Phi && !Psi): unsatisfiable, exact cut
    const double log_p = frame.log_poisson + frame.log_weight;
    const bool too_deep =
        options.depth_truncation != 0 && frame.depth > options.depth_truncation;
    if (log_p < log_w || too_deep) {
      // Truncated (below w, eq. 4.4, or beyond the depth bound N, eq. 4.3):
      // account the whole discarded sub-tree per eq. (4.6). The last state
      // satisfies Phi v Psi here (dead states returned above).
      ++result.paths_truncated;
      result.error_bound += std::exp(frame.log_weight) * poisson_tail.tail(frame.depth);
      return;
    }
    if (++nodes > options.max_nodes) {
      throw NodeBudgetError(
          "UniformizationUntilEngine: node budget exhausted; raise truncation probability w "
          "or use the discretization engine (Lambda*t too large for path enumeration)");
    }
    result.max_depth = std::max(result.max_depth, frame.depth);

    if (sig_.psi[frame.state]) {
      ++result.paths_stored;
      const double p = std::exp(log_p);
      if (options.aggregate_signatures) {
        classes[signature] += p;
      } else {
        const SpacingCounts k(signature.begin(), signature.begin() + num_k);
        const SpacingCounts j(signature.begin() + num_k, signature.end());
        result.probability += p * conditional_probability(context, k, j, t, r);
      }
    }

    const double log_next_poisson =
        frame.log_poisson + log_mean - std::log(static_cast<double>(frame.depth + 1));
    const auto& edges = sig_.adjacency[frame.state];
    const auto& log_probabilities = log_probability_[frame.state];
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const SignatureTransition& edge = edges[e];
      ++signature[sig_.reward_class[edge.target]];
      ++signature[num_k + edge.impulse_class];
      self(self, Frame{edge.target, frame.depth + 1, log_next_poisson,
                       frame.log_weight + log_probabilities[e]});
      --signature[sig_.reward_class[edge.target]];
      --signature[num_k + edge.impulse_class];
    }
  };

  // Initial path: n = 0, k = 1_[rho(start)], j = 0, p = e^{-mean}.
  ++signature[sig_.reward_class[start]];
  explore(explore, Frame{start, 0, -mean, 0.0});

  if (options.aggregate_signatures) {
    result.signature_classes = classes.size();
    // Drain the hash map into lexicographic signature order before folding:
    // accumulating in unordered_map iteration order made the rounding of
    // result.probability depend on the hash seed / load factor, so two runs
    // (or two stdlib versions) could disagree in the last ulps — enough to
    // flip a threshold verdict inside the error band.
    // lint:allow(unordered-iteration) — this drain is order-insensitive: the
    // fold below runs over `ordered` only after the sort.
    std::vector<std::pair<std::vector<std::uint32_t>, double>> ordered(classes.begin(),
                                                                       classes.end());  // lint:allow(unordered-iteration)
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [sig, p] : ordered) {
      const SpacingCounts k(sig.begin(), sig.begin() + num_k);
      const SpacingCounts j(sig.begin() + num_k, sig.end());
      result.probability += p * conditional_probability(context, k, j, t, r);
    }
  } else {
    result.signature_classes = result.paths_stored;
  }
  result.nodes_expanded = nodes;

  context.omega_work().record();
  obs::counter_add("uniformization.paths_visited", visited);
  obs::counter_add("uniformization.nodes_expanded", result.nodes_expanded);
  obs::counter_add("uniformization.paths_stored", result.paths_stored);
  obs::counter_add("uniformization.paths_truncated", result.paths_truncated);
  obs::counter_add("uniformization.signature_classes", result.signature_classes);
  obs::gauge_max("uniformization.max_depth", static_cast<double>(result.max_depth));
  return result;
}

}  // namespace csrlmrm::numeric
