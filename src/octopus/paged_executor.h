// Copyright 2026 The OCTOPUS Reproduction Authors
// PagedOctopus: the OCTOPUS executor over an out-of-core OCT2 snapshot.
// The same probe -> walk -> crawl cores as the in-memory `Octopus`
// (identical algorithm, identical results, identical non-I/O counters)
// executed through per-thread `storage::PagedMeshAccessor`s that read
// positions and adjacency from a byte-capped buffer pool — the
// configuration the paper actually evaluates (disk-resident Blue Brain
// meshes, Sec. IV-H1), where the interesting cost is page accesses.
//
// Not a `SpatialIndex`: there is no resident `TetraMesh` to pass around,
// and a snapshot cannot deform — it is the frozen state of one
// simulation step, queried out of core.
#ifndef OCTOPUS_OCTOPUS_PAGED_EXECUTOR_H_
#define OCTOPUS_OCTOPUS_PAGED_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/execution_context.h"
#include "engine/query_batch.h"
#include "octopus/query_executor.h"
#include "octopus/surface_index.h"
#include "storage/paged_mesh.h"
#include "storage/snapshot.h"

namespace octopus {

/// \brief Out-of-core OCTOPUS over a paged snapshot.
///
/// Same mutation model as `Octopus`: read-only after `Open`, all query
/// scratch in per-shard contexts, one batch sharded across a pool,
/// `RangeQuery` a batch of one; calls must not overlap.
/// The buffer pool is shared by all shards; per-context page-I/O
/// counters merge into `stats().page_io` in shard order.
class PagedOctopus {
 public:
  struct Options {
    OctopusOptions executor;
    storage::BufferManager::Options pool;
  };

  /// Opens `snapshot_path` and builds the surface index from the
  /// snapshot's stored surface vertex list (no tetrahedra needed — the
  /// surface was extracted at snapshot time) and, under
  /// `executor.route_to_scan`, the Eq. 6 route from the snapshot's
  /// positions.
  static Result<std::unique_ptr<PagedOctopus>> Open(
      const std::string& snapshot_path, const Options& options = {});

  std::string Name() const { return "OCTOPUS-PAGED"; }

  /// A batch of one over the base snapshot, appended to `out`; not safe
  /// to call concurrently.
  void RangeQuery(const AABB& box, std::vector<VertexId>* out) const;

  /// Batch path, sharded across `pool` when given (null = sequential).
  /// Per-query results are independent of the thread count and equal to
  /// the in-memory results on the same (layout-permuted) mesh.
  ///
  /// `position_pages` pins the batch to a position epoch: one entry per
  /// position page, the epoch's bytes or null for the base snapshot
  /// (`storage::ResidentEpoch::pages()`); every shard's accessor reads
  /// through it. Empty = the base snapshot's own positions (epoch 0).
  /// The caller keeps the table and its pages alive for the batch.
  void RangeQueryBatch(
      std::span<const AABB> boxes, engine::QueryBatchResult* out,
      engine::ThreadPool* pool = nullptr,
      std::span<const std::byte* const> position_pages = {}) const;

  /// Surface index + buffer pool frames actually allocated + per-context
  /// scratch: everything resident, honestly counted — the number the
  /// paper's out-of-core story is about (bounded regardless of mesh
  /// size).
  size_t FootprintBytes() const;

  const storage::PagedMeshStore& store() const { return *store_; }
  const SurfaceIndex& surface_index() const { return surface_index_; }
  const ScanRoute& route() const { return route_; }
  const PhaseStats& stats() const { return contexts_.stats(); }
  void ResetStats() const { contexts_.ResetStats(); }

 private:
  PagedOctopus(std::unique_ptr<storage::PagedMeshStore> store,
               const Options& options);

  /// Returns the context's paged accessor, creating or rebinding it to
  /// this store on first use (contexts are reused across executors),
  /// with a batch begun against `position_pages` (empty = base
  /// positions) and a lease budget sized for `shards` concurrent
  /// accessors.
  storage::PagedMeshAccessor& AccessorFor(
      engine::ExecutionContext* context,
      std::span<const std::byte* const> position_pages,
      size_t shards) const;

  Options options_;
  std::unique_ptr<storage::PagedMeshStore> store_;
  SurfaceIndex surface_index_;
  ScanRoute route_;
  mutable engine::ContextPool contexts_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PAGED_EXECUTOR_H_
