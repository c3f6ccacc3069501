// State-space builder: explores a ModelSpec's reachable valuations
// breadth-first from the initial state and emits a core::Mrm plus the
// mapping between states and variable valuations.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/mrm.hpp"
#include "lang/spec.hpp"

namespace csrlmrm::lang {

/// Limits for the exploration.
struct BuildOptions {
  /// Abort (SpecError) when more reachable states than this exist.
  std::size_t max_states = 1u << 20;
};

/// The built model plus its state/valuation mapping.
struct BuiltModel {
  /// One entry per state: the variable values, aligned with variable_names.
  std::vector<std::vector<long>> valuations;
  std::vector<std::string> variable_names;
  /// Index of the initial state (always 0 by construction).
  core::StateIndex initial_state = 0;

  /// The constructed MRM. Held by optional so BuiltModel stays
  /// default-constructible while Mrm (deliberately) is not.
  std::optional<core::Mrm> model;

  /// The state index of a valuation, or num_states() when unreachable.
  core::StateIndex state_of(const std::vector<long>& valuation) const;
};

/// Explores and builds. Raises SpecError for: unknown identifiers, type
/// errors, non-integral variable bounds/updates, updates leaving a
/// variable's range, negative rates, impulse rewards on self-loops,
/// commands assigning the same variable twice, conflicting impulse values
/// on one transition, or state-space overflow.
BuiltModel build_model(const ModelSpec& spec, const BuildOptions& options = {});

/// Convenience: parse + build.
BuiltModel build_model_from_text(const std::string& text, const BuildOptions& options = {});

/// Reads the .spec file at `path` and builds it; std::runtime_error
/// "cannot open '<path>'" when the file cannot be read.
BuiltModel build_model_from_file(const std::string& path);

}  // namespace csrlmrm::lang
