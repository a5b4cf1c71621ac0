// Copyright 2026 The OCTOPUS Reproduction Authors
// Face multiplicities of a mesh by counting sort (paper Sec. IV-E1's
// global face list): how many cells contain each face. A face contained
// in exactly one cell is a surface face. One kernel serves every face
// arity: triangles of tetrahedra, quads of hexahedra.
#ifndef OCTOPUS_MESH_FACE_COUNT_H_
#define OCTOPUS_MESH_FACE_COUNT_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mesh/types.h"

namespace octopus {

/// \brief Every face occurrence of a mesh, grouped so that equal faces
/// are adjacent.
///
/// A face is its K corner ids in ascending order. Each occurrence is
/// filed under its lowest corner (a counting sort with 64-bit offsets),
/// and each vertex's bucket of remaining corners is sorted. Equal faces
/// then form one run whose length is the face's multiplicity, and runs
/// come out in ascending face order. O(#cells) time plus small sorts;
/// memory is one offset per vertex and K-1 ids per face occurrence, with
/// no per-face allocation.
template <size_t K>
class FaceCount {
 public:
  using Face = std::array<VertexId, K>;

  /// `faces_of(cell)` returns the cell's faces, each with ascending ids
  /// below `num_vertices`.
  template <typename Cells, typename FacesOf>
  FaceCount(size_t num_vertices, const Cells& cells, FacesOf faces_of)
      : offsets_(num_vertices + 1, 0) {
    for (const auto& cell : cells) {
      for (const Face& f : faces_of(cell)) {
        assert(f[0] < num_vertices);
        ++offsets_[f[0] + 1];
      }
    }
    for (size_t v = 1; v <= num_vertices; ++v) offsets_[v] += offsets_[v - 1];
    rest_.resize(offsets_[num_vertices]);
    // Scatter with offsets_[v] as v's cursor. Each cursor ends at the
    // next bucket's start, so shifting the array by one restores it.
    for (const auto& cell : cells) {
      for (const Face& f : faces_of(cell)) {
        std::copy(f.begin() + 1, f.end(), rest_[offsets_[f[0]]++].begin());
      }
    }
    for (size_t v = num_vertices; v > 0; --v) offsets_[v] = offsets_[v - 1];
    offsets_[0] = 0;
    for (size_t v = 0; v < num_vertices; ++v) {
      const auto begin = rest_.begin() + offsets_[v];
      const auto end = rest_.begin() + offsets_[v + 1];
      std::sort(begin, end);
      for (auto it = begin; it != end; ++it) {
        if (it == begin || *it != *(it - 1)) ++num_distinct_;
      }
    }
  }

  /// Number of distinct faces.
  size_t num_distinct() const { return num_distinct_; }

  /// Calls `visit(face, multiplicity)` once per distinct face, in
  /// ascending face order.
  template <typename Visit>
  void ForEachFace(Visit visit) const {
    Face face{};
    for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
      face[0] = static_cast<VertexId>(v);
      const uint64_t end = offsets_[v + 1];
      uint64_t i = offsets_[v];
      while (i < end) {
        uint64_t j = i + 1;
        while (j < end && rest_[j] == rest_[i]) ++j;
        std::copy(rest_[i].begin(), rest_[i].end(), face.begin() + 1);
        visit(face, static_cast<size_t>(j - i));
        i = j;
      }
    }
  }

  /// The surface: faces of multiplicity exactly one, ascending, and the
  /// ids of the vertices on them, ascending and unique.
  void Surface(std::vector<Face>* faces,
               std::vector<VertexId>* vertices) const {
    std::vector<bool> on_surface(offsets_.size() - 1, false);
    ForEachFace([&](const Face& face, size_t multiplicity) {
      if (multiplicity != 1) return;
      faces->push_back(face);
      for (VertexId v : face) on_surface[v] = true;
    });
    for (size_t v = 0; v < on_surface.size(); ++v) {
      if (on_surface[v]) vertices->push_back(static_cast<VertexId>(v));
    }
  }

 private:
  using Rest = std::array<VertexId, K - 1>;

  // Vertex v's bucket is rest_[offsets_[v], offsets_[v + 1]): the other
  // corners of every face occurrence whose lowest corner is v.
  std::vector<uint64_t> offsets_;
  std::vector<Rest> rest_;
  size_t num_distinct_ = 0;
};

}  // namespace octopus

#endif  // OCTOPUS_MESH_FACE_COUNT_H_
