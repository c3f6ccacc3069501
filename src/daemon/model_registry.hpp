// Resident-model registry of mrmcheckd: load a model once, check it many
// times. Each resident entry pairs the immutable Mrm with the caches that
// make repeat queries cheap — a TransformCache bound to the model that stays
// warm across requests (every plan executed for the model draws from it),
// identified by a content fingerprint
// so the same model loaded under two names (or re-loaded after a daemon-side
// eviction) deduplicates to one resident copy.
//
// The registry is a bounded LRU keyed by fingerprint with an optional
// name alias per entry: capacity bounds daemon memory (models plus their
// transform caches are the dominant resident state), eviction only drops the
// registry's reference — in-flight checks hold shared_ptrs and finish
// against the evicted copy safely.
//
// Observability: "daemon.model_loads" / "daemon.model_cache_hits" /
// "daemon.models_evicted" counters and the "daemon.models_resident" gauge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/mrm.hpp"
#include "core/transform.hpp"

namespace csrlmrm::daemon {

/// FNV-1a over the model's canonical .tra/.lab/.rewr/.rewi serialization,
/// as 16 lowercase hex digits. Two models fingerprint equal exactly when
/// io::save_mrm would write identical files.
std::string fingerprint_mrm(const core::Mrm& model);

/// One loaded model plus its cross-request caches. Immutable after
/// registration except for the (internally synchronized) TransformCache,
/// which is bound to `model` and declared after it, so it never outlives it.
struct ResidentModel {
  std::string fingerprint;
  std::shared_ptr<const core::Mrm> model;
  std::shared_ptr<core::TransformCache> transforms;
};

class ModelRegistry {
 public:
  /// Resident models retained. Each entry owns the full model plus its
  /// transform cache, so the bound is deliberately small; raise it for
  /// daemons fronting many models.
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit ModelRegistry(std::size_t capacity = kDefaultCapacity);

  /// Registers `model` under its content fingerprint, with `name` as an
  /// optional alias. A model already resident (same fingerprint) is NOT
  /// replaced — its warm caches survive and the alias is refreshed — so
  /// clients may re-send "load" idempotently.
  std::shared_ptr<const ResidentModel> add(core::Mrm model, const std::string& name = "");

  /// The resident model whose name or fingerprint equals `key`; nullptr when
  /// absent. A hit refreshes LRU recency.
  std::shared_ptr<const ResidentModel> find(const std::string& key);

  std::size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const ResidentModel> resident;
    std::string name;
    std::uint64_t last_use = 0;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;   // lint:guarded_by(mutex_)
  std::vector<Slot> slots_;  // lint:guarded_by(mutex_)
};

}  // namespace csrlmrm::daemon
