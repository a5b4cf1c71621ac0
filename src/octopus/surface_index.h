// Copyright 2026 The OCTOPUS Reproduction Authors
// The mesh-surface index (paper Sec. IV-E): a hash table over the vertices
// that lie on the mesh surface. It is *geometrical*, not spatial — it knows
// which vertices are on the surface, not where they are — so deformation
// (position-only change) never invalidates it. Only the rare mesh
// restructuring events require insert/delete maintenance.
#ifndef OCTOPUS_OCTOPUS_SURFACE_INDEX_H_
#define OCTOPUS_OCTOPUS_SURFACE_INDEX_H_

#include <span>
#include <unordered_set>
#include <vector>

#include "mesh/surface.h"
#include "mesh/tetra_mesh.h"

namespace octopus {

/// \brief Hash index of the surface vertices plus an id-sorted probe array.
///
/// The probe array is kept sorted by vertex id: the fused surface probe
/// (octopus/surface_probe.h) gathers the surface positions in that order
/// once per batch shard, moving forward through the position array
/// instead of at random, into a copy every query of the shard is then
/// tested against — the sequential scan cost CS of the analytical model
/// (Sec. IV-G), shared by the batch. Probing every k-th entry yields the
/// "sample of equidistant vertices on the surface" of the
/// surface-approximation optimization (Sec. IV-H2).
class SurfaceIndex {
 public:
  struct Options {
    /// Keep the face-multiplicity registry after build so `ApplyDelta`
    /// can maintain the index incrementally under restructuring. Costs
    /// O(#faces) memory; leave off for deformation-only simulations.
    bool support_restructuring = false;
  };

  SurfaceIndex();  // default options
  explicit SurfaceIndex(Options options) : options_(options) {}

  /// Extracts the surface and builds the hash table. One-time cost,
  /// reported separately by the benches (paper: 62 s for the 33 GB mesh).
  void Build(const TetraMesh& mesh);

  /// Builds directly from a precomputed surface vertex set (sorted or
  /// not) — used by non-tetrahedral meshes (e.g. `HexaMesh`), whose
  /// surface extraction lives with their face type. Restructuring support
  /// is unavailable through this path.
  void BuildFromSurfaceVertices(std::vector<VertexId> surface_vertices);

  /// All surface vertices, ascending by id.
  std::span<const VertexId> probe_order() const { return probe_order_; }

  bool Contains(VertexId v) const { return set_.find(v) != set_.end(); }

  size_t num_surface_vertices() const { return probe_order_.size(); }

  /// Incremental maintenance for a restructuring step. Requires
  /// `support_restructuring`; asserts otherwise.
  void ApplyDelta(const RestructureDelta& delta);

  /// Bytes of the hash table + probe array (+ face registry if kept).
  size_t FootprintBytes() const;
  /// The surface hash table alone, as the paper reports it (27 MB for the
  /// largest neuroscience mesh).
  size_t HashTableBytes() const;

 private:
  void InsertVertex(VertexId v);
  void EraseVertex(VertexId v);

  Options options_;
  // The paper's hash table of surface vertices.
  std::unordered_set<VertexId> set_;
  // Same contents, sorted ascending for cache-friendly probing.
  std::vector<VertexId> probe_order_;
  FaceRegistry registry_;  // populated only if support_restructuring
  bool registry_built_ = false;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_SURFACE_INDEX_H_
