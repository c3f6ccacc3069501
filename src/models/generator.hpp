// Streamed model generators — the million-state substrate.
//
// A StateGenerator describes an MRM implicitly: a set of initial state keys
// plus an expand() callback producing one state's rewards, labels, and
// outgoing transitions. explore() discovers the reachable state space
// breadth-first and assembles the CSR arrays directly as rows are emitted —
// no intermediate model file, no per-row maps — because BFS discovery order
// IS the state index order, so every row arrives exactly when its slot in
// the row pointer array comes up.
//
// The result is bitwise-identical to materializing the same model through
// save_mrm/load_mrm (tests/test_generator.cpp pins this on small instances):
// both routes feed identical (row, col, rate) triplets to the same CSR
// validation, in the same order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mrm.hpp"

namespace csrlmrm::models {

/// One streamed transition out of the state being expanded. `target` is an
/// opaque 64-bit key in the generator's own encoding (bitmask, packed
/// coordinates, ...); explore() interns keys to dense state indices in
/// discovery order. An `impulse` > 0 attaches iota = impulse to the
/// transition.
struct GeneratedTransition {
  std::uint64_t target = 0;
  double rate = 0.0;
  double impulse = 0.0;
};

/// One streamed state, filled in by StateGenerator::expand. `label_mask` has
/// bit i set iff the state carries propositions()[i]; a mask (rather than
/// strings) keeps per-state label storage at one word across a million
/// states.
struct GeneratedState {
  double state_reward = 0.0;
  std::uint32_t label_mask = 0;
  std::vector<GeneratedTransition> transitions;
};

/// An implicit MRM: initial keys + successor function.
class StateGenerator {
 public:
  virtual ~StateGenerator() = default;

  /// Keys of the initial states, explored first in the given order.
  virtual std::vector<std::uint64_t> initial_states() const = 0;

  /// Fills `out` for the state with key `key`. Called exactly once per
  /// discovered state, in BFS order; `out` arrives cleared. Rates must be
  /// finite and positive, impulses finite and >= 0.
  virtual void expand(std::uint64_t key, GeneratedState& out) const = 0;

  /// The atomic propositions this generator can emit, in label_mask bit
  /// order. Declared up front so labelings agree across instance sizes.
  virtual std::vector<std::string> propositions() const = 0;

  /// Preallocation hints (0 = unknown); exactness is not required.
  virtual std::size_t expected_states() const { return 0; }
  virtual std::size_t expected_transitions() const { return 0; }
};

struct ExploreOptions {
  /// Abort (std::runtime_error) when BFS discovers more than this many
  /// states; 0 = unbounded. A guard against mis-parameterized generators,
  /// not a truncation mechanism.
  std::size_t max_states = 0;
};

/// Breadth-first exploration of `generator` into a fully validated MRM.
core::Mrm explore(const StateGenerator& generator, const ExploreOptions& options = {});

/// Parses a "family:key=value,key=value" spec into a generator. Families:
/// "crowd" (epidemic spread), "grid" (mesh network random walk), "virus"
/// (virus propagation over a host topology); see the per-family headers for
/// parameters. Throws std::invalid_argument for unknown families, unknown
/// keys, or malformed values.
std::unique_ptr<StateGenerator> make_generator(const std::string& spec);

/// make_generator + explore in one call (the mrmcheck --model-gen= path).
core::Mrm make_generated_mrm(const std::string& spec, const ExploreOptions& options = {});

}  // namespace csrlmrm::models
