// Copyright 2026 The OCTOPUS Reproduction Authors
// OCTOPUS on hexahedral meshes: the same three-phase strategy (surface
// probe, directed walk, crawl) over the hexahedral vertex graph. The
// paper's key observation (Sec. IV-B) is that the strategy is independent
// of the polyhedral primitive — this executor demonstrates it, sharing the
// crawler and directed walk with the tetrahedral one via `MeshGraphView`.
// The same execution-context model applies: the object is read-only after
// `Build`, all query scratch lives in per-shard contexts, so
// `RangeQueryBatch` parallelizes exactly like the tetrahedral `Octopus`.
#ifndef OCTOPUS_OCTOPUS_HEX_OCTOPUS_H_
#define OCTOPUS_OCTOPUS_HEX_OCTOPUS_H_

#include <memory>
#include <span>
#include <vector>

#include "engine/execution_context.h"
#include "engine/query_batch.h"
#include "mesh/hexa_mesh.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "octopus/phase_stats.h"
#include "octopus/query_executor.h"  // OctopusOptions
#include "octopus/surface_index.h"

namespace octopus {

namespace engine {
class ThreadPool;
}  // namespace engine

/// \brief OCTOPUS query executor over a `HexaMesh`.
///
/// Restructuring maintenance is not wired up for hexahedra (the paper
/// notes restructuring "is rarely implemented in practice"); rebuild via
/// `Build` if connectivity changes.
class HexOctopus {
 public:
  explicit HexOctopus(OctopusOptions options = {});

  /// Builds the surface index from the hexahedral quad-face surface and,
  /// under `route_to_scan`, the Eq. 6 route.
  void Build(const HexaMesh& mesh);

  /// Appends the ids of exactly the vertices inside `box`: a batch of
  /// one; not safe to call concurrently.
  void RangeQuery(const HexaMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const;

  /// Batch path, sharded across `pool` when given (null = sequential).
  void RangeQueryBatch(const HexaMesh& mesh, std::span<const AABB> boxes,
                       engine::QueryBatchResult* out,
                       engine::ThreadPool* pool = nullptr) const;

  size_t FootprintBytes() const;

  const SurfaceIndex& surface_index() const { return surface_index_; }
  const PhaseStats& stats() const { return contexts_.stats(); }
  void ResetStats() const { contexts_.ResetStats(); }

 private:
  OctopusOptions options_;
  SurfaceIndex surface_index_;
  ScanRoute route_;
  mutable engine::ContextPool contexts_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_HEX_OCTOPUS_H_
