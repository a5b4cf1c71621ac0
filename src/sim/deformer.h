// Copyright 2026 The OCTOPUS Reproduction Authors
// Simulation-side mesh deformation: at every discrete time step the
// simulation overwrites the positions of (almost) all vertices in place
// (paper Fig. 1(e)). Deformers are the black-box "simulation software" of
// the paper — the monitoring/query side never sees their internals.
#ifndef OCTOPUS_SIM_DEFORMER_H_
#define OCTOPUS_SIM_DEFORMER_H_

#include <algorithm>
#include <cstddef>

#include "mesh/tetra_mesh.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// \brief Interface for in-place mesh deformation.
///
/// Implementations displace vertices relative to the *rest* positions
/// captured at `Bind` time, so displacement stays bounded and the mesh
/// stays well-shaped over arbitrarily many steps (a real FEM solver
/// guarantees element validity the same way).
class Deformer {
 public:
  virtual ~Deformer() = default;

  /// Captures the rest state. Must be called once before `ApplyStep`, and
  /// again if the mesh is restructured.
  virtual void Bind(const TetraMesh& mesh) = 0;

  /// Overwrites `mesh->mutable_positions()` with the positions of time
  /// step `step` (1-based). Every vertex may move.
  virtual void ApplyStep(int step, TetraMesh* mesh) = 0;
};

/// Mean edge length of the mesh, estimated from a vertex sample. Deformer
/// amplitudes are set relative to this so elements never invert. One
/// estimator over any accessor, so the in-memory and paged backends
/// resolve bit-identical amplitudes from the same mesh.
template <storage::MeshAccessor Mesh>
float EstimateMeanEdgeLength(Mesh& mesh, size_t sample = 1024) {
  const size_t v_count = mesh.num_vertices();
  const size_t stride =
      std::max<size_t>(1, v_count / std::max<size_t>(sample, 1));
  double total = 0.0;
  size_t edges = 0;
  for (size_t v = 0; v < v_count; v += stride) {
    const Vec3 p = mesh.position(static_cast<VertexId>(v));
    for (VertexId n : mesh.neighbors(static_cast<VertexId>(v))) {
      total += Distance(p, mesh.position(n));
      ++edges;
    }
  }
  return edges == 0 ? 0.0f : static_cast<float>(total / edges);
}

inline float EstimateMeanEdgeLength(const TetraMesh& mesh,
                                    size_t sample = 1024) {
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  return EstimateMeanEdgeLength(accessor, sample);
}

}  // namespace octopus

#endif  // OCTOPUS_SIM_DEFORMER_H_
