#include "oracle/lumping.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

namespace csrlmrm::core {

namespace {

/// One grouped outgoing entry: (target block, impulse value, summed rate).
using SignatureEntry = std::tuple<std::size_t, double, double>;
using Signature = std::vector<SignatureEntry>;

Signature outgoing_signature(const Mrm& model, StateIndex s,
                             const std::vector<std::size_t>& block_of) {
  std::map<std::pair<std::size_t, double>, double> grouped;
  for (const auto& e : model.rates().transitions(s)) {
    grouped[{block_of[e.col], model.impulse_reward(s, e.col)}] += e.value;
  }
  Signature signature;
  signature.reserve(grouped.size());
  for (const auto& [key, rate] : grouped) {
    signature.emplace_back(key.first, key.second, rate);
  }
  return signature;
}

/// Reassigns contiguous block ids given per-state keys; returns block count.
template <typename Key>
std::size_t assign_blocks(const std::vector<Key>& keys, std::vector<std::size_t>& block_of) {
  std::map<Key, std::size_t> ids;
  for (std::size_t s = 0; s < keys.size(); ++s) {
    const auto [it, inserted] = ids.try_emplace(keys[s], ids.size());
    block_of[s] = it->second;
  }
  return ids.size();
}

}  // namespace

Lumping compute_lumping(const Mrm& model) {
  const std::size_t n = model.num_states();
  Lumping lumping;
  lumping.block_of.assign(n, 0);

  // Initial partition: identical label sets and state rewards.
  {
    std::vector<std::pair<std::vector<std::string>, double>> keys(n);
    for (StateIndex s = 0; s < n; ++s) {
      keys[s] = {model.labels().labels_of(s), model.state_reward(s)};
    }
    lumping.num_blocks = assign_blocks(keys, lumping.block_of);
  }

  // Refinement to the coarsest partition stable under outgoing
  // (target-block, impulse, aggregate-rate) signatures, with the extra
  // representability constraint that no merged state keeps an
  // impulse-carrying edge inside its own block (such an edge would have to
  // become a self-loop with a positive impulse in the quotient, which
  // Definition 3.1 forbids and which would change the reward semantics).
  while (true) {
    // Signature refinement.
    std::vector<std::pair<std::size_t, Signature>> keys(n);
    for (StateIndex s = 0; s < n; ++s) {
      keys[s] = {lumping.block_of[s], outgoing_signature(model, s, lumping.block_of)};
    }
    assign_blocks(keys, lumping.block_of);

    // Incoming-impulse refinement: if some source state reaches one target
    // block through edges with *different* impulse values, no single-impulse
    // quotient edge can represent the mixture and the accumulated-reward
    // distribution would change — split that block by the impulse each
    // member receives from the offending source.
    {
      std::vector<std::vector<std::pair<std::size_t, double>>> incoming_keys(n);
      for (StateIndex s = 0; s < n; ++s) {
        std::map<std::size_t, double> first_impulse;
        std::map<std::size_t, bool> mixed;
        for (const auto& e : model.rates().transitions(s)) {
          const std::size_t block = lumping.block_of[e.col];
          const double impulse = model.impulse_reward(s, e.col);
          const auto [it, inserted] = first_impulse.try_emplace(block, impulse);
          if (!inserted && it->second != impulse) mixed[block] = true;
        }
        if (mixed.empty()) continue;
        for (const auto& e : model.rates().transitions(s)) {
          const std::size_t block = lumping.block_of[e.col];
          if (mixed.count(block)) {
            incoming_keys[e.col].emplace_back(s, model.impulse_reward(s, e.col));
          }
        }
      }
      std::vector<std::pair<std::size_t, std::vector<std::pair<std::size_t, double>>>> keys2(n);
      for (StateIndex s = 0; s < n; ++s) {
        std::sort(incoming_keys[s].begin(), incoming_keys[s].end());
        keys2[s] = {lumping.block_of[s], std::move(incoming_keys[s])};
      }
      assign_blocks(keys2, lumping.block_of);
    }

    // Representability: singletonize states with intra-block impulse edges
    // (key s+1 is unique per state and never collides with the 0 of
    // unaffected states).
    std::vector<std::pair<std::size_t, std::size_t>> single_keys(n);
    for (StateIndex s = 0; s < n; ++s) {
      bool intra_block_impulse = false;
      for (const auto& e : model.impulse_rewards().row(s)) {
        if (e.value > 0.0 && lumping.block_of[e.col] == lumping.block_of[s] && e.col != s) {
          intra_block_impulse = true;
          break;
        }
      }
      single_keys[s] = {lumping.block_of[s], intra_block_impulse ? s + 1 : 0};
    }
    const std::size_t final_count = assign_blocks(single_keys, lumping.block_of);

    // Both steps only ever split blocks, so an unchanged count means the
    // partition is stable.
    if (final_count == lumping.num_blocks) break;
    lumping.num_blocks = final_count;
  }

  lumping.representative.assign(lumping.num_blocks, n);
  for (StateIndex s = 0; s < n; ++s) {
    StateIndex& representative = lumping.representative[lumping.block_of[s]];
    if (representative == n || s < representative) representative = s;
  }
  return lumping;
}

Mrm build_quotient(const Mrm& model, const Lumping& lumping) {
  if (lumping.block_of.size() != model.num_states()) {
    throw std::invalid_argument("build_quotient: lumping does not match the model");
  }
  const std::size_t blocks = lumping.num_blocks;

  RateMatrixBuilder rates(blocks);
  ImpulseRewardsBuilder impulses(blocks);
  Labeling labels(blocks);
  std::vector<double> rewards(blocks, 0.0);

  for (std::size_t block = 0; block < blocks; ++block) {
    const StateIndex representative = lumping.representative[block];
    rewards[block] = model.state_reward(representative);
    for (const auto& ap : model.labels().labels_of(representative)) labels.add(block, ap);

    // Aggregate the representative's transitions per target block; the
    // refinement guarantees one impulse value per (block, target block).
    std::map<std::size_t, double> rate_into;
    std::map<std::size_t, double> impulse_into;
    for (const auto& e : model.rates().transitions(representative)) {
      const std::size_t target = lumping.block_of[e.col];
      rate_into[target] += e.value;
      const double impulse = model.impulse_reward(representative, e.col);
      const auto [it, inserted] = impulse_into.try_emplace(target, impulse);
      if (!inserted && it->second != impulse) {
        throw std::logic_error(
            "build_quotient: mixed impulse values into one target block (partition not a "
            "valid lumping)");
      }
    }
    for (const auto& [target, rate] : rate_into) {
      rates.add(block, target, rate);
      const double impulse = impulse_into.at(target);
      if (impulse > 0.0) impulses.add(block, target, impulse);
    }
  }
  return Mrm(Ctmc(rates.build(), std::move(labels)), std::move(rewards), impulses.build());
}

Mrm lump(const Mrm& model) { return build_quotient(model, compute_lumping(model)); }

}  // namespace csrlmrm::core
