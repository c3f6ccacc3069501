// Looking up a state of a model built from the specification language by
// its variable valuation, as the builder tests do.
#pragma once

#include <vector>

#include "lang/builder.hpp"

namespace csrlmrm::lang {

/// The state index of a valuation, or built.valuations.size() when it is
/// unreachable.
core::StateIndex state_of(const BuiltModel& built, const std::vector<long>& valuation);

}  // namespace csrlmrm::lang
