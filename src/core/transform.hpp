// The M[Phi] model transformation (Definition 4.1): make every state in a
// given set absorbing and equip it with zero rewards.
//
// Used by the until checker (Theorems 4.1-4.3): for Phi U^[0,t]_[0,r] Psi the
// set made absorbing is Sat(!Phi) union Sat(Psi), after which
// P(s, Phi U_[0,r]^[0,t] Psi) = Pr{ Y(t) <= r, X(t) |= Psi } in the
// transformed model.
//
// Note the asymmetry the thesis relies on: *outgoing* rates, the state
// reward, and *outgoing* impulse rewards of an absorbed state are zeroed, but
// impulses on transitions *into* an absorbed state are kept — the jump that
// first reaches the absorbing set still pays its impulse cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/mrm.hpp"

namespace csrlmrm::core {

/// Returns M[absorb]: the same state space with every state s for which
/// absorb[s] holds made absorbing with zero rewards. Throws
/// std::invalid_argument when the mask size differs from the model size.
Mrm make_absorbing(const Mrm& model, const std::vector<bool>& absorb);

/// Memoizes make_absorbing results of one base model by absorbing mask. It
/// is the only way transforms are shared: every until query over a model
/// (all formulas of a plan, the two mask runs of an operator with UNKNOWN
/// operand states, every request a daemon serves for a resident model)
/// builds each M[absorb] once. make_absorbing is a deterministic pure
/// function of (model, mask), so returning the cached Mrm is
/// bitwise-identical to rebuilding it.
///
/// The cache is bound at construction to the model it serves, which must
/// outlive it; the key is the mask alone. Thread-safe and capacity-bounded:
/// a daemon keeps one cache alive per resident model for the process
/// lifetime and serves concurrent same-model queries from it, so lookups
/// lock internally and occupancy is bounded LRU — eviction only drops the
/// cache's reference, handed-out shared_ptrs stay valid.
/// Observability: "transform.cache_hits" / "transform.cache_evictions"
/// counters and the "transform.cache_occupancy" gauge.
class TransformCache {
 public:
  /// Distinct masks retained. Generous for one model's formula batches
  /// (three transform shapes per until class), tight enough that a daemon
  /// fed adversarial mask-churning queries stays bounded.
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit TransformCache(const Mrm& model, std::size_t capacity = kDefaultCapacity);

  /// The base model this cache serves.
  const Mrm& model() const { return model_; }

  /// M[absorb] for the bound base model, built on first request. Throws
  /// std::invalid_argument when the mask size differs from the model size.
  std::shared_ptr<const Mrm> absorbing(const std::vector<bool>& absorb);

  std::size_t size() const;
  std::size_t hits() const;

 private:
  struct Entry {
    std::shared_ptr<const Mrm> model;
    std::uint64_t last_use = 0;
  };

  const Mrm& model_;
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;  // lint:guarded_by(mutex_)
  std::size_t hits_ = 0;    // lint:guarded_by(mutex_)
  std::map<std::vector<bool>, Entry> entries_;  // lint:guarded_by(mutex_)
};

}  // namespace csrlmrm::core
