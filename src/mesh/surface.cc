// Copyright 2026 The OCTOPUS Reproduction Authors
#include "mesh/surface.h"

#include <algorithm>
#include <cassert>

namespace octopus {

TetFaceCount CountFaces(const TetraMesh& mesh) {
  return TetFaceCount(mesh.num_vertices(), mesh.tetrahedra(), TetFaces);
}

SurfaceInfo ExtractSurface(const TetFaceCount& faces) {
  SurfaceInfo info;
  faces.Surface(&info.surface_faces, &info.surface_vertices);
  return info;
}

SurfaceInfo ExtractSurface(const TetraMesh& mesh) {
  return ExtractSurface(CountFaces(mesh));
}

void FaceRegistry::Build(const TetFaceCount& faces) {
  face_count_.clear();
  surface_face_count_.clear();
  face_count_.reserve(faces.num_distinct());
  faces.ForEachFace([&](const FaceKey& face, size_t multiplicity) {
    face_count_.emplace(
        face, static_cast<uint8_t>(std::min<size_t>(multiplicity, 255)));
    if (multiplicity == 1) {
      for (VertexId v : face) ++surface_face_count_[v];
    }
  });
}

size_t FaceRegistry::num_surface_vertices() const {
  size_t n = 0;
  for (const auto& [v, c] : surface_face_count_) {
    if (c > 0) ++n;
  }
  return n;
}

size_t FaceRegistry::FootprintBytes() const {
  // Approximation: hash-node overhead of ~2 pointers per entry.
  const size_t face_entry = sizeof(FaceKey) + sizeof(uint8_t) + 16;
  const size_t vert_entry = sizeof(VertexId) + sizeof(uint32_t) + 16;
  return face_count_.size() * face_entry +
         surface_face_count_.size() * vert_entry;
}

void FaceRegistry::ChangeVertexSurfaceCount(
    VertexId v, int delta,
    std::unordered_map<VertexId, bool>* initial_membership) {
  // Record membership as it was before the first touch within this delta,
  // so transitions can be emitted against the true pre-delta state.
  auto it = surface_face_count_.find(v);
  const uint32_t old_count = it == surface_face_count_.end() ? 0 : it->second;
  initial_membership->try_emplace(v, old_count > 0);
  assert(delta > 0 || old_count >= static_cast<uint32_t>(-delta));
  const uint32_t new_count = old_count + delta;
  if (new_count == 0) {
    if (it != surface_face_count_.end()) surface_face_count_.erase(it);
  } else if (it != surface_face_count_.end()) {
    it->second = new_count;
  } else {
    surface_face_count_.emplace(v, new_count);
  }
}

void FaceRegistry::ChangeFace(
    const FaceKey& face, int delta,
    std::unordered_map<VertexId, bool>* initial_membership) {
  uint8_t& count = face_count_[face];
  const bool was_surface = count == 1;
  assert(delta > 0 || count >= static_cast<uint8_t>(-delta));
  count = static_cast<uint8_t>(count + delta);
  assert(count <= 2 && "face shared by more than two tetrahedra");
  const bool is_surface = count == 1;
  if (was_surface && !is_surface) {
    for (VertexId v : face) {
      ChangeVertexSurfaceCount(v, -1, initial_membership);
    }
  } else if (!was_surface && is_surface) {
    for (VertexId v : face) {
      ChangeVertexSurfaceCount(v, +1, initial_membership);
    }
  }
  if (count == 0) face_count_.erase(face);
}

void FaceRegistry::ApplyDelta(const RestructureDelta& delta,
                              std::vector<VertexTransition>* transitions) {
  std::unordered_map<VertexId, bool> initial_membership;
  for (const Tet& t : delta.removed_tets) {
    for (const FaceKey& f : TetFaces(t)) {
      ChangeFace(f, -1, &initial_membership);
    }
  }
  for (const Tet& t : delta.added_tets) {
    for (const FaceKey& f : TetFaces(t)) {
      ChangeFace(f, +1, &initial_membership);
    }
  }
  if (transitions != nullptr) {
    for (const auto& [v, was_on_surface] : initial_membership) {
      const bool now = IsSurfaceVertex(v);
      if (now != was_on_surface) transitions->push_back({v, now});
    }
  }
}

}  // namespace octopus
