// Copyright 2026 The OCTOPUS Reproduction Authors
// Hexahedral simulation meshes (paper Fig. 1(b)): OCTOPUS works on any
// polyhedral primitive because it only uses the vertex graph and the
// surface. This module provides the hexahedral counterpart of TetraMesh —
// 8-corner cells, 12 edges per cell, quadrilateral faces.
#ifndef OCTOPUS_MESH_HEXA_MESH_H_
#define OCTOPUS_MESH_HEXA_MESH_H_

#include <array>
#include <vector>

#include "common/aabb.h"
#include "common/vec3.h"
#include "mesh/graph_view.h"
#include "mesh/types.h"

namespace octopus {

/// A hexahedral cell: corner c sits at lattice offset
/// (c & 1, (c >> 1) & 1, (c >> 2) & 1) — the same bit convention as the
/// Kuhn cube corners in the tetrahedral generator.
using HexCell = std::array<VertexId, 8>;

/// A quadrilateral face as its four corner ids in ascending order (the
/// canonical key; a face is shared by at most two cells).
using QuadKey = std::array<VertexId, 4>;

/// Canonicalizes four vertex ids into a QuadKey.
QuadKey MakeQuadKey(VertexId a, VertexId b, VertexId c, VertexId d);

/// The six quad faces of a hex cell, canonicalized.
std::array<QuadKey, 6> HexFaces(const HexCell& cell);

/// \brief Hexahedral mesh: SoA positions + CSR vertex adjacency + cells.
///
/// The adjacency graph contains the 12 cell edges per hexahedron (corner
/// pairs differing in exactly one lattice bit); an interior lattice
/// vertex therefore has degree 6.
class HexaMesh {
 public:
  HexaMesh() = default;
  HexaMesh(std::vector<Vec3> positions, std::vector<HexCell> cells);

  size_t num_vertices() const { return positions_.size(); }
  size_t num_cells() const { return cells_.size(); }
  size_t num_edges() const { return adj_.size() / 2; }

  const Vec3& position(VertexId v) const { return positions_[v]; }
  const std::vector<Vec3>& positions() const { return positions_; }
  /// Mutable access for deformers (in-place simulation updates).
  std::vector<Vec3>& mutable_positions() { return positions_; }

  const std::vector<HexCell>& cells() const { return cells_; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_.data() + adj_offsets_[v],
            adj_.data() + adj_offsets_[v + 1]};
  }
  size_t degree(VertexId v) const {
    return adj_offsets_[v + 1] - adj_offsets_[v];
  }

  /// Primitive-agnostic view consumed by the crawler and directed walk.
  MeshGraphView Graph() const {
    return MeshGraphView{positions_, adj_offsets_, adj_};
  }

  AABB ComputeBounds() const;
  double AverageDegree() const;
  size_t MemoryBytes() const;

 private:
  std::vector<Vec3> positions_;
  std::vector<uint32_t> adj_offsets_;
  std::vector<VertexId> adj_;
  std::vector<HexCell> cells_;
};

/// \brief Surface of a hexahedral mesh: quad faces contained in exactly
/// one cell, and the vertices on them.
struct HexSurfaceInfo {
  std::vector<VertexId> surface_vertices;  // sorted, unique
  std::vector<QuadKey> surface_faces;
};

/// Extracts the surface via the global (quad) face list — the hexahedral
/// analog of `ExtractSurface` (paper Sec. IV-E1), counted by the same
/// `FaceCount` kernel: the quads that occur exactly once.
HexSurfaceInfo ExtractHexSurface(const HexaMesh& mesh);

}  // namespace octopus

#endif  // OCTOPUS_MESH_HEXA_MESH_H_
