#include "oracle/spec_states.hpp"

namespace csrlmrm::lang {

core::StateIndex state_of(const BuiltModel& built, const std::vector<long>& valuation) {
  for (std::size_t s = 0; s < built.valuations.size(); ++s) {
    if (built.valuations[s] == valuation) return s;
  }
  return built.valuations.size();
}

}  // namespace csrlmrm::lang
