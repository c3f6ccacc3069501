#include "daemon/model_registry.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "io/model_files.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::daemon {

std::string fingerprint_mrm(const core::Mrm& model) {
  // Canonical bytes: exactly what io::save_mrm would write, which the io
  // round-trip tests already pin as a stable function of the model.
  std::ostringstream bytes;
  io::write_tra(bytes, model.rates());
  io::write_lab(bytes, model.labels());
  io::write_rewr(bytes, model.state_rewards());
  io::write_rewi(bytes, model.impulse_rewards());
  const std::string text = bytes.str();

  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64-bit offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer);
}

ModelRegistry::ModelRegistry(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const ResidentModel> ModelRegistry::add(core::Mrm model,
                                                        const std::string& name) {
  const std::string fingerprint = fingerprint_mrm(model);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (Slot& slot : slots_) {
    if (slot.resident->fingerprint != fingerprint) continue;
    // Same content already resident: keep the warm caches, refresh alias.
    slot.last_use = tick_;
    if (!name.empty()) slot.name = name;
    obs::counter_add("daemon.model_cache_hits");
    return slot.resident;
  }
  if (capacity_ > 0 && slots_.size() >= capacity_) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_use < slots_[victim].last_use) victim = i;
    }
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(victim));
    obs::counter_add("daemon.models_evicted");
  }
  auto resident = std::make_shared<ResidentModel>();
  resident->fingerprint = fingerprint;
  resident->model = std::make_shared<const core::Mrm>(std::move(model));
  resident->transforms = std::make_shared<core::TransformCache>(*resident->model);
  slots_.push_back(Slot{resident, name, tick_});
  obs::counter_add("daemon.model_loads");
  obs::gauge_max("daemon.models_resident", static_cast<double>(slots_.size()));
  return resident;
}

std::shared_ptr<const ResidentModel> ModelRegistry::find(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (Slot& slot : slots_) {
    if (slot.resident->fingerprint != key && slot.name != key) continue;
    slot.last_use = tick_;
    obs::counter_add("daemon.model_cache_hits");
    return slot.resident;
  }
  return nullptr;
}

std::size_t ModelRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace csrlmrm::daemon
