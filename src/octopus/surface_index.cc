// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/surface_index.h"

#include <algorithm>
#include <cassert>

namespace octopus {

SurfaceIndex::SurfaceIndex() : options_(Options{}) {}

void SurfaceIndex::Build(const TetraMesh& mesh) {
  set_.clear();
  probe_order_.clear();

  // One face count feeds both the surface and, if kept, the registry.
  const TetFaceCount faces = CountFaces(mesh);
  SurfaceInfo info = ExtractSurface(faces);
  probe_order_ = std::move(info.surface_vertices);  // already sorted
  set_.reserve(probe_order_.size());
  set_.insert(probe_order_.begin(), probe_order_.end());

  if (options_.support_restructuring) {
    registry_.Build(faces);
    registry_built_ = true;
  }
}

void SurfaceIndex::BuildFromSurfaceVertices(
    std::vector<VertexId> surface_vertices) {
  assert(!options_.support_restructuring &&
         "restructuring maintenance requires the tetrahedral Build()");
  std::sort(surface_vertices.begin(), surface_vertices.end());
  surface_vertices.erase(
      std::unique(surface_vertices.begin(), surface_vertices.end()),
      surface_vertices.end());
  probe_order_ = std::move(surface_vertices);
  set_.clear();
  set_.reserve(probe_order_.size());
  set_.insert(probe_order_.begin(), probe_order_.end());
  registry_built_ = false;
}

void SurfaceIndex::InsertVertex(VertexId v) {
  if (!set_.insert(v).second) return;
  probe_order_.insert(
      std::lower_bound(probe_order_.begin(), probe_order_.end(), v), v);
}

void SurfaceIndex::EraseVertex(VertexId v) {
  if (set_.erase(v) == 0) return;
  const auto it =
      std::lower_bound(probe_order_.begin(), probe_order_.end(), v);
  assert(it != probe_order_.end() && *it == v);
  probe_order_.erase(it);
}

void SurfaceIndex::ApplyDelta(const RestructureDelta& delta) {
  assert(registry_built_ &&
         "SurfaceIndex::ApplyDelta requires support_restructuring");
  std::vector<FaceRegistry::VertexTransition> transitions;
  registry_.ApplyDelta(delta, &transitions);
  for (const auto& t : transitions) {
    if (t.now_on_surface) {
      InsertVertex(t.vertex);
    } else {
      EraseVertex(t.vertex);
    }
  }
}

size_t SurfaceIndex::HashTableBytes() const {
  // id + typical unordered_set node/bucket overhead.
  return set_.size() * (sizeof(VertexId) + 16);
}

size_t SurfaceIndex::FootprintBytes() const {
  size_t bytes =
      HashTableBytes() + probe_order_.capacity() * sizeof(VertexId);
  if (registry_built_) bytes += registry_.FootprintBytes();
  return bytes;
}

}  // namespace octopus
