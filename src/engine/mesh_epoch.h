// Copyright 2026 The OCTOPUS Reproduction Authors
// Epoch identity of a dynamic mesh: every published position state of a
// versioned backend carries one. Queries pin an epoch and execute
// entirely against it (copy-on-write publication, see
// server/epoch_store.h), so a result set is always internally consistent
// — no torn positions — while the spatial structures (surface index,
// octree) stay stale per the paper's central claim. Lives at the engine
// layer so batch results can carry it without depending on sim/ or
// server/.
#ifndef OCTOPUS_ENGINE_MESH_EPOCH_H_
#define OCTOPUS_ENGINE_MESH_EPOCH_H_

#include <cstdint>

namespace octopus::engine {

/// Monotonic identifier of one published position state. Published ids
/// start at 1 — epoch 1 is the load-time state (the one the stale index
/// was built from) — and every `AdvanceStep` publishes a fresh, strictly
/// larger id. Id 0 is never published: the wire protocol uses it as the
/// "whatever is current" sentinel, and a default `EpochInfo{}` (epoch 0)
/// marks a static backend's unversioned state.
using EpochId = uint64_t;

/// \brief Identity of the mesh state a batch executed against.
struct EpochInfo {
  EpochId epoch = 0;
  /// Simulation step the positions correspond to. Equals the staleness
  /// of the load-time index in steps (the index is never rebuilt).
  uint32_t step = 0;

  friend bool operator==(const EpochInfo&, const EpochInfo&) = default;
};

}  // namespace octopus::engine

#endif  // OCTOPUS_ENGINE_MESH_EPOCH_H_
