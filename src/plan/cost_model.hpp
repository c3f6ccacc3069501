// The engine-selection pass's cost model.
//
// The decision delegates to checker::choose_until_engine — the single source
// of truth for what --until-engine=auto does at run time — and only adds the
// diagnostics the plan printer reports (live states, Poisson levels).
#pragma once

#include <cstddef>
#include <string>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::plan {

/// One until op's compile-time engine resolution.
struct EnginePrediction {
  checker::AutoEngineChoice choice;
  /// Non-absorbing states of the transformed model (cost-model input).
  std::size_t live_states = 0;
  /// Poisson truncation depth at the op's horizon (cost-model input).
  std::size_t poisson_levels = 0;
  /// One-line printable justification ("classdp+hybrid: within budget
  /// (120x42 nodes vs budget ...)", ...).
  std::string rationale;
};

/// Resolves the engine for one P2-class until query on `transformed` with
/// horizon `t` exactly as the run-time auto path would, plus diagnostics.
EnginePrediction predict_until_engine(const core::Mrm& transformed, double t,
                                      const checker::CheckerOptions& options);

}  // namespace csrlmrm::plan
