// Copyright 2026 The OCTOPUS Reproduction Authors
// Global face list and mesh-surface extraction (paper Sec. IV-E1): a face
// belongs to the mesh surface iff exactly one tetrahedron contains it. The
// face list is a counting sort of face occurrences (mesh/face_count.h),
// counted once per build and shared by the extraction and the
// restructuring registry.
#ifndef OCTOPUS_MESH_SURFACE_H_
#define OCTOPUS_MESH_SURFACE_H_

#include <unordered_map>
#include <vector>

#include "mesh/face_count.h"
#include "mesh/tetra_mesh.h"
#include "mesh/types.h"

namespace octopus {

/// \brief Result of a surface extraction pass.
struct SurfaceInfo {
  /// Sorted, unique ids of vertices lying on at least one surface face.
  std::vector<VertexId> surface_vertices;
  /// All surface faces (canonicalized corner triples), ascending.
  std::vector<FaceKey> surface_faces;
};

/// Face multiplicities of a tetrahedral mesh: the global face list.
using TetFaceCount = FaceCount<3>;

/// Counts every face of every tetrahedron (see `FaceCount`): O(#tets)
/// time, one offset per vertex plus two ids per face occurrence.
TetFaceCount CountFaces(const TetraMesh& mesh);

/// Extracts the surface: the faces that occur exactly once in the global
/// face list, and their vertices.
SurfaceInfo ExtractSurface(const TetFaceCount& faces);
SurfaceInfo ExtractSurface(const TetraMesh& mesh);

/// \brief Incremental face-multiplicity registry.
///
/// Maintains, for every face of the mesh, how many tetrahedra contain it
/// (1 = surface face, 2 = interior face). Feeding it `RestructureDelta`s
/// keeps the surface identification current without a full O(#tets) rescan;
/// the `SurfaceIndex` uses the emitted vertex transitions to update its
/// hash table with insert/delete operations (Sec. IV-E2).
class FaceRegistry {
 public:
  /// Per-vertex surface transition caused by a connectivity change.
  struct VertexTransition {
    VertexId vertex;
    bool now_on_surface;  // true = joined surface, false = left surface
  };

  FaceRegistry() = default;

  /// Builds the registry (and per-vertex surface-face counts) from scratch,
  /// from the mesh's face count (the one its surface was extracted from).
  void Build(const TetFaceCount& faces);

  /// Applies a connectivity delta; appends every vertex whose surface
  /// membership changed to `transitions` (each vertex at most once).
  void ApplyDelta(const RestructureDelta& delta,
                  std::vector<VertexTransition>* transitions);

  /// True if `v` currently lies on >= 1 surface face.
  bool IsSurfaceVertex(VertexId v) const {
    auto it = surface_face_count_.find(v);
    return it != surface_face_count_.end() && it->second > 0;
  }

  size_t num_faces() const { return face_count_.size(); }
  size_t num_surface_vertices() const;

  size_t FootprintBytes() const;

 private:
  void ChangeFace(const FaceKey& face, int delta,
                  std::unordered_map<VertexId, bool>* initial_membership);
  void ChangeVertexSurfaceCount(
      VertexId v, int delta,
      std::unordered_map<VertexId, bool>* initial_membership);

  // face -> number of containing tets (1 or 2 in a well-formed mesh).
  std::unordered_map<FaceKey, uint8_t, FaceKeyHash> face_count_;
  // vertex -> number of surface faces it belongs to.
  std::unordered_map<VertexId, uint32_t> surface_face_count_;
};

}  // namespace octopus

#endif  // OCTOPUS_MESH_SURFACE_H_
