// Copyright 2026 The OCTOPUS Reproduction Authors
// The MeshAccessor abstraction: the single interface through which the
// query phases (surface probe, directed walk, crawl) read vertex
// positions and adjacency. Two implementations exist —
//
//  * `InMemoryMeshAccessor`: a zero-overhead wrapper over the resident
//    `MeshGraphView` (every call inlines to the same loads as before the
//    storage layer existed), and
//  * `storage::PagedMeshAccessor` (paged_mesh.h): the out-of-core view
//    reading through a byte-capped buffer pool —
//
// so every query path runs unmodified over either. The executor cores
// are templates constrained by the `MeshAccessor` concept; the in-memory
// path keeps its original machine code, the paged path pays page
// accesses.
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
//    read ahead of demand (in memory a cache-line prefetch: the gather
//    reads surface positions by id, scattered over the array).
//  * `neighbors(v)` returns a span that remains valid until the NEXT
//    `neighbors` call on the same accessor; `position` calls never
//    invalidate it. Callers must not hold a span across `neighbors`
//    calls (the crawler and directed walk naturally comply).
//  * `PrefetchPosition(v)` is the crawl's look-ahead hint, free to
//    no-op. The paged accessor leases the page ahead of demand; the
//    in-memory accessor does nothing, since most neighbours the crawl
//    looks ahead to are already visited and never read.
//  * Accessors are single-threaded handles; concurrent shards each use
//    their own (the backing store may be shared).
#ifndef OCTOPUS_STORAGE_MESH_ACCESSOR_H_
#define OCTOPUS_STORAGE_MESH_ACCESSOR_H_

#include <concepts>
#include <cstddef>
#include <span>

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
};

/// \brief The resident implementation: forwards to `MeshGraphView`.
///
/// Copyable and free to construct; per-shard instances are made on the
/// fly. `position` returns a reference into the mesh's position array
/// and `neighbors` a span into its CSR arrays — zero copies, zero
/// overhead.
class InMemoryMeshAccessor {
 public:
  explicit InMemoryMeshAccessor(const MeshGraphView& graph)
      : graph_(graph) {}

  size_t num_vertices() const { return graph_.num_vertices(); }

  const Vec3& position(VertexId v) const { return graph_.position(v); }

  /// In memory the probe reads the position array like everything else.
  const Vec3& ProbePosition(size_t, VertexId v) const {
    return position(v);
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return graph_.neighbors(v);
  }

  void PrefetchPosition(VertexId) const {}

  void PrefetchProbePosition(size_t, VertexId v) const {
    __builtin_prefetch(graph_.positions.data() + v);
  }

 private:
  MeshGraphView graph_;
};

static_assert(MeshAccessor<InMemoryMeshAccessor>);

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_MESH_ACCESSOR_H_
