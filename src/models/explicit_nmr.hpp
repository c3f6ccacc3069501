// The N-modular-redundant system with *explicit per-module state*: each
// state records which individual modules are failed (a bitmask) plus the
// voter condition — 2^N * 2 states in total, the model a naive translation
// of the system description would produce.
//
// Because the modules are interchangeable, the states with equal
// failed-module counts are equivalent, and the quotient is the (N+2)-state
// failed-module *counter* abstraction that models/tmr.hpp builds directly.
// The partition-refinement test oracle under tests/oracle/ recovers that
// quotient automatically; tests verify it matches make_tmr state-for-state
// and benchmarks quantify the state-space collapse.
//
// Dynamics mirror the chapter-5 system with variable failure rates: every
// working module fails independently (rate module_failure_rate), one repair
// facility fixes the lowest-index failed module (rate module_repair_rate,
// paying the repair impulse), the voter fails from any state and its repair
// restores the system "as new" (all modules repaired).
#pragma once

#include "core/mrm.hpp"
#include "models/tmr.hpp"

namespace csrlmrm::models {

/// State index of (failed-module bitmask, voter down?): voter-up states come
/// first, ordered by mask.
core::StateIndex explicit_nmr_state(unsigned failed_mask, bool voter_down,
                                    unsigned num_modules);

/// Builds the explicit-state NMR MRM for `config` (the failure-rate mode is
/// forced to per-module/variable, which is what independent module failures
/// mean). Labels, rewards and impulses follow the same conventions as
/// make_tmr, keyed by the number of failed modules. Throws
/// std::invalid_argument for num_modules < 1 or > 16 (2^17 states is past
/// the point where the counter model should be used directly).
core::Mrm make_explicit_nmr(const TmrConfig& config);

}  // namespace csrlmrm::models
