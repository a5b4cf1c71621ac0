// Copyright 2026 The OCTOPUS Reproduction Authors
// The MeshAccessor abstraction: the single interface through which the
// query phases (surface probe, directed walk, crawl) read vertex
// positions and adjacency. Two implementations exist —
//
//  * `InMemoryMeshAccessor`: adjacency from the resident
//    `MeshGraphView`, positions from the mesh's own array or from an
//    epoch's position pages, and
//  * `storage::PagedMeshAccessor` (paged_mesh.h): the out-of-core view
//    reading through a byte-capped buffer pool —
//
// so every query path runs unmodified over either. The executor cores
// are templates constrained by the `MeshAccessor` concept. Both read a
// batch's epoch through one position page table (`ResidentEpoch`,
// storage/delta_overlay.h; empty = their own positions) with the page
// arithmetic of common/fast_div.h; only the paged one prices pages.
//
// Accessor contract:
//  * `position(v)` returns the vertex position (by value or reference).
//  * `ProbePosition(rank, v)` is the surface probe's read: `v` is the
//    `rank`-th vertex of the probe order. Must return the same value as
//    `position(v)`; the split lets the paged accessor serve undeformed
//    probe reads from index-resident data instead of page I/O. The
//    fused probe calls it once per sampled surface vertex per shard per
//    batch (its gather), not once per query.
//  * `PrefetchProbePosition(rank, v)`, optional, hints that gather's
//    read ahead of demand (a cache-line prefetch over a flat array, which
//    the gather reads by id, scattered; none through a page table).
//  * `neighbors(v)` returns a span that remains valid until the NEXT
//    `neighbors` call on the same accessor; `position` calls never
//    invalidate it. Callers must not hold a span across `neighbors`
//    calls (the crawler and directed walk naturally comply).
//  * `ReadPositions(first, count, x, y, z)`, optional, splits the
//    positions of ids [first, first + count) into the three coordinate
//    arrays: the tiled scan's block read (index/tiled_scan.h), page run
//    by page run. Without it the scan calls `position` per vertex (the
//    paged accessor, whose reads are priced one by one).
//  * `PrefetchPosition(v)` is the crawl's look-ahead hint, free to
//    no-op. The paged accessor leases the page ahead of demand; the
//    in-memory accessor does nothing, since most neighbours the crawl
//    looks ahead to are already visited and never read.
//  * `PrefetchNeighbors(v)` is the crawl's other look-ahead hint: the
//    crawl will call `neighbors(v)` a few expansions from now. It must
//    not change any observable state. In memory it reads `v`'s CSR
//    offset and prefetches the start of its adjacency run, since the
//    FIFO's vertices are scattered over the mesh and each run is
//    otherwise a cache miss. In `PagedMeshAccessor` it is a deliberate
//    no-op: leasing an adjacency page ahead of demand would move the
//    pool and lease counters the crawl is priced by.
//  * Accessors are single-threaded handles; concurrent shards each use
//    their own (the backing store may be shared).
#ifndef OCTOPUS_STORAGE_MESH_ACCESSOR_H_
#define OCTOPUS_STORAGE_MESH_ACCESSOR_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/fast_div.h"
#include "common/vec3.h"
#include "mesh/graph_view.h"
#include "mesh/types.h"

namespace octopus::storage {

/// Concept every mesh accessor implementation must satisfy.
template <typename A>
concept MeshAccessor = requires(A& a, VertexId v, size_t rank) {
  { a.num_vertices() } -> std::convertible_to<size_t>;
  { a.position(v) } -> std::convertible_to<Vec3>;
  { a.ProbePosition(rank, v) } -> std::convertible_to<Vec3>;
  { a.neighbors(v) } -> std::convertible_to<std::span<const VertexId>>;
  a.PrefetchPosition(v);
  a.PrefetchNeighbors(v);
};

/// \brief The resident implementation: adjacency from `MeshGraphView`,
/// positions from its array or, when bound, from a position page table
/// with every page present (an in-memory epoch covers them all).
/// Copyable and cheap; per-shard instances are made on the fly.
class InMemoryMeshAccessor {
 public:
  /// `position_pages` (empty = the mesh's array) outlives the accessor.
  explicit InMemoryMeshAccessor(
      const MeshGraphView& graph,
      std::span<const std::byte* const> position_pages = {},
      uint32_t positions_per_page = 0)
      : graph_(graph), pages_(position_pages) {
    if (!pages_.empty()) pos_div_.Init(positions_per_page);
  }

  size_t num_vertices() const { return graph_.num_vertices(); }

  Vec3 position(VertexId v) const {
    if (pages_.empty()) return graph_.position(v);
    const uint32_t page = pos_div_.Div(v);
    Vec3 p;
    std::memcpy(&p, pages_[page] + pos_div_.Rem(v, page) * sizeof(Vec3),
                sizeof(Vec3));
    return p;
  }

  void ReadPositions(VertexId first, size_t count, float* x, float* y,
                     float* z) const {
    if (pages_.empty()) {
      const Vec3* src = graph_.positions.data() + first;
      for (size_t j = 0; j < count; ++j) {
        x[j] = src[j].x;
        y[j] = src[j].y;
        z[j] = src[j].z;
      }
      return;
    }
    for (size_t done = 0; done < count;) {
      const auto v = static_cast<VertexId>(first + done);
      const uint32_t page = pos_div_.Div(v);
      const uint32_t offset = pos_div_.Rem(v, page);
      const size_t run =
          std::min<size_t>(count - done, pos_div_.divisor() - offset);
      const std::byte* src = pages_[page] + offset * sizeof(Vec3);
      for (size_t j = 0; j < run; ++j, ++done) {
        Vec3 p;
        std::memcpy(&p, src + j * sizeof(Vec3), sizeof(Vec3));
        x[done] = p.x;
        y[done] = p.y;
        z[done] = p.z;
      }
    }
  }

  /// In memory the probe reads positions like everything else.
  Vec3 ProbePosition(size_t, VertexId v) const { return position(v); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return graph_.neighbors(v);
  }

  void PrefetchPosition(VertexId) const {}

  void PrefetchNeighbors(VertexId v) const {
    __builtin_prefetch(graph_.adj.data() + graph_.adj_offsets[v]);
  }

  void PrefetchProbePosition(size_t, VertexId v) const {
    if (pages_.empty()) __builtin_prefetch(graph_.positions.data() + v);
  }

 private:
  MeshGraphView graph_;
  std::span<const std::byte* const> pages_;
  FastDiv pos_div_;
};

static_assert(MeshAccessor<InMemoryMeshAccessor>);

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_MESH_ACCESSOR_H_
