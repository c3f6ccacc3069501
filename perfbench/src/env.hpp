// The environment block every result carries: build, compiler, cores
// (nominal and effective from a calibrated burn), cache sizes, streaming
// bandwidth and a fixed host-speed reference time.
#pragma once

#include "obs/json.hpp"

namespace perfbench {

/// Runs the probes (about two seconds, ~4x L3 of memory touched) and returns
/// the block. Meant to run in its own process so its memory does not count
/// towards a workload's peak RSS.
csrlmrm::obs::JsonValue probe_environment();

}  // namespace perfbench
