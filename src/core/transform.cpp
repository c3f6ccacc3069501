#include "core/transform.hpp"

#include <stdexcept>
#include <utility>

#include "obs/stats.hpp"

namespace csrlmrm::core {

Mrm make_absorbing(const Mrm& model, const std::vector<bool>& absorb) {
  const std::size_t n = model.num_states();
  if (absorb.size() != n) {
    throw std::invalid_argument("make_absorbing: mask size mismatch");
  }

  RateMatrixBuilder rates(n);
  ImpulseRewardsBuilder impulses(n);
  std::vector<double> rewards(n, 0.0);
  for (StateIndex s = 0; s < n; ++s) {
    if (absorb[s]) continue;  // rho'(s) = 0, R'(s,.) = 0, iota'(s,.) = 0
    rewards[s] = model.state_reward(s);
    for (const auto& e : model.rates().transitions(s)) rates.add(s, e.col, e.value);
    for (const auto& e : model.impulse_rewards().row(s)) impulses.add(s, e.col, e.value);
  }

  // The labeling is unchanged by Definition 4.1 (only dynamics and rewards
  // change); copy it verbatim.
  return Mrm(Ctmc(rates.build(), model.labels()), std::move(rewards), impulses.build());
}

TransformCache::TransformCache(const Mrm& model, std::size_t capacity)
    : model_(model), capacity_(capacity) {}

std::shared_ptr<const Mrm> TransformCache::absorbing(const std::vector<bool>& absorb) {
  // Build OUTSIDE the lock would double-build under a concurrent miss on the
  // same mask; holding the lock across make_absorbing keeps the cache
  // single-build per mask instead. Transform builds are cheap (one pass over
  // the rate matrix) relative to the solves behind them, so serializing them
  // is the right trade.
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  const auto found = entries_.find(absorb);
  if (found != entries_.end()) {
    ++hits_;
    found->second.last_use = tick_;
    obs::counter_add("transform.cache_hits");
    return found->second.model;
  }
  if (capacity_ > 0 && entries_.size() >= capacity_) {
    auto victim = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.last_use < victim->second.last_use) victim = cand;
    }
    entries_.erase(victim);
    obs::counter_add("transform.cache_evictions");
  }
  auto built = std::make_shared<const Mrm>(make_absorbing(model_, absorb));
  entries_.emplace(absorb, Entry{built, tick_});
  obs::gauge_max("transform.cache_occupancy", static_cast<double>(entries_.size()));
  return built;
}

std::size_t TransformCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t TransformCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

}  // namespace csrlmrm::core
