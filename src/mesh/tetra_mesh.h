// Copyright 2026 The OCTOPUS Reproduction Authors
// The memory-resident simulation mesh: adjacency-list representation as
// described in paper Sec. III-A ("the adjacency list stores for each vertex
// the position as well as pointers to neighboring vertices"; a list of
// polyhedra provides the mapping from polyhedra to vertices).
#ifndef OCTOPUS_MESH_TETRA_MESH_H_
#define OCTOPUS_MESH_TETRA_MESH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "common/vec3.h"
#include "mesh/graph_view.h"
#include "mesh/types.h"

namespace octopus {

/// \brief Connectivity/geometry delta produced by mesh restructuring.
///
/// Deformation (position-only changes) needs no delta — it writes positions
/// in place. Restructuring (split/merge of polyhedra, Sec. IV-E2) is rare
/// and is communicated to interested indexes (e.g. `SurfaceIndex`) through
/// this structure.
struct RestructureDelta {
  /// Tets added, as vertex quadruples (valid ids in the updated mesh).
  std::vector<Tet> added_tets;
  /// Tets removed, as the vertex quadruples they had before removal.
  std::vector<Tet> removed_tets;
  /// Ids of vertices created by this restructuring step.
  std::vector<VertexId> added_vertices;

  bool Empty() const {
    return added_tets.empty() && removed_tets.empty() &&
           added_vertices.empty();
  }
  void Clear() {
    added_tets.clear();
    removed_tets.clear();
    added_vertices.clear();
  }
};

/// \brief Tetrahedral mesh in struct-of-arrays layout with CSR adjacency.
///
/// * `positions()` — vertex coordinates, overwritten in place by the
///   simulation every time step (mesh deformation).
/// * `neighbors(v)` — ids of vertices connected to `v` by a polyhedron edge;
///   this is the graph OCTOPUS crawls.
/// * `tetrahedra()` — the polyhedron list; used to derive faces/surface.
///
/// Connectivity is immutable through the public API except via
/// `ApplyRestructure`, which also returns the delta needed for incremental
/// surface-index maintenance. CSR adjacency is rebuilt on restructuring;
/// this is acceptable because restructuring is rare (the paper notes it "is
/// rarely implemented in practice").
class TetraMesh {
 public:
  TetraMesh() = default;

  /// Constructs from raw arrays; computes CSR adjacency and incidence
  /// counts. Prefer `MeshBuilder` for assembling meshes piecewise.
  TetraMesh(std::vector<Vec3> positions, std::vector<Tet> tets);

  size_t num_vertices() const { return positions_.size(); }
  size_t num_tetrahedra() const { return tets_.size(); }
  size_t num_edges() const { return adj_.size() / 2; }

  const Vec3& position(VertexId v) const { return positions_[v]; }
  void set_position(VertexId v, const Vec3& p) { positions_[v] = p; }

  const std::vector<Vec3>& positions() const { return positions_; }
  /// Mutable access for deformers: the simulation overwrites positions in
  /// place each step (paper Fig. 1(e)).
  std::vector<Vec3>& mutable_positions() { return positions_; }

  const std::vector<Tet>& tetrahedra() const { return tets_; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_.data() + adj_offsets_[v],
            adj_.data() + adj_offsets_[v + 1]};
  }

  /// Primitive-agnostic view consumed by the crawler and directed walk.
  /// Invalidated by `ApplyRestructure`.
  MeshGraphView Graph() const {
    return MeshGraphView{positions_, adj_offsets_, adj_};
  }
  size_t degree(VertexId v) const {
    return adj_offsets_[v + 1] - adj_offsets_[v];
  }

  /// Frees the tet list and incidence counts, keeping positions and
  /// adjacency (all that deforming and querying read). For holders that
  /// never restructure; `ApplyRestructure` cannot be used afterwards.
  void ReleaseTetrahedra() {
    tets_ = std::vector<Tet>();
    tet_count_ = std::vector<uint32_t>();
  }

  /// Number of tetrahedra incident to `v`. Zero means the vertex is
  /// orphaned (never produced by well-formed construction/restructuring).
  uint32_t incident_tet_count(VertexId v) const { return tet_count_[v]; }

  /// Tight bounding box of the current vertex positions. O(V).
  AABB ComputeBounds() const;

  /// Average vertex degree (the paper's mesh degree M).
  double AverageDegree() const;

  /// Bytes held by positions + adjacency + tet list (the "dataset size").
  size_t MemoryBytes() const;

  // --- Restructuring (rare connectivity changes, Sec. IV-E2) ---

  /// Appends a new vertex; returns its id. Only meaningful as part of a
  /// restructuring transaction (see `Restructurer`).
  VertexId AddVertexForRestructure(const Vec3& p);

  /// Applies a batch of tet insertions/removals, rebuilds adjacency and
  /// incidence counts. `delta.removed_tets` entries must match existing
  /// tets exactly (any corner order); duplicates are not supported.
  /// Returns false (and leaves the mesh untouched) if a removed tet does
  /// not exist or a removal would orphan a vertex.
  bool ApplyRestructure(const RestructureDelta& delta);

 private:
  friend class MeshBuilder;

  void RebuildAdjacency();
  void RebuildTetCounts();

  std::vector<Vec3> positions_;
  std::vector<uint32_t> adj_offsets_;  // size V+1
  std::vector<VertexId> adj_;          // concatenated neighbor lists
  std::vector<Tet> tets_;
  std::vector<uint32_t> tet_count_;  // per-vertex incident tet count
};

}  // namespace octopus

#endif  // OCTOPUS_MESH_TETRA_MESH_H_
