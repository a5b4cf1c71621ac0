// Copyright 2026 The OCTOPUS Reproduction Authors
#include "mesh/hexa_mesh.h"

#include <algorithm>

#include "mesh/face_count.h"

namespace octopus {

QuadKey MakeQuadKey(VertexId a, VertexId b, VertexId c, VertexId d) {
  QuadKey key{a, b, c, d};
  std::sort(key.begin(), key.end());
  return key;
}

std::array<QuadKey, 6> HexFaces(const HexCell& cell) {
  // A face fixes one lattice axis bit to 0 or 1; its four corners are the
  // cell corners with that bit value.
  std::array<QuadKey, 6> faces;
  int out = 0;
  for (int axis = 0; axis < 3; ++axis) {
    for (int side = 0; side < 2; ++side) {
      VertexId corner[4];
      int n = 0;
      for (int c = 0; c < 8; ++c) {
        if (((c >> axis) & 1) == side) corner[n++] = cell[c];
      }
      faces[out++] = MakeQuadKey(corner[0], corner[1], corner[2], corner[3]);
    }
  }
  return faces;
}

namespace {

// The 12 edges of a hex cell: corner index pairs differing in one bit.
constexpr int kHexEdges[12][2] = {
    {0, 1}, {2, 3}, {4, 5}, {6, 7},  // x edges
    {0, 2}, {1, 3}, {4, 6}, {5, 7},  // y edges
    {0, 4}, {1, 5}, {2, 6}, {3, 7},  // z edges
};

}  // namespace

HexaMesh::HexaMesh(std::vector<Vec3> positions, std::vector<HexCell> cells)
    : positions_(std::move(positions)), cells_(std::move(cells)) {
  const size_t v_count = positions_.size();
  std::vector<uint32_t> counts(v_count + 1, 0);
  for (const HexCell& cell : cells_) {
    for (const auto& e : kHexEdges) {
      ++counts[cell[e[0]] + 1];
      ++counts[cell[e[1]] + 1];
    }
  }
  std::vector<uint32_t> offsets(v_count + 1, 0);
  for (size_t i = 1; i <= v_count; ++i) {
    offsets[i] = offsets[i - 1] + counts[i];
  }
  std::vector<VertexId> scratch(offsets[v_count]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const HexCell& cell : cells_) {
    for (const auto& e : kHexEdges) {
      const VertexId a = cell[e[0]];
      const VertexId b = cell[e[1]];
      scratch[cursor[a]++] = b;
      scratch[cursor[b]++] = a;
    }
  }
  adj_offsets_.assign(v_count + 1, 0);
  adj_.clear();
  adj_.reserve(scratch.size() / 2);
  for (size_t v = 0; v < v_count; ++v) {
    auto begin = scratch.begin() + offsets[v];
    auto end = scratch.begin() + offsets[v + 1];
    std::sort(begin, end);
    auto last = std::unique(begin, end);
    adj_offsets_[v] = static_cast<uint32_t>(adj_.size());
    adj_.insert(adj_.end(), begin, last);
  }
  adj_offsets_[v_count] = static_cast<uint32_t>(adj_.size());
  adj_.shrink_to_fit();
}

AABB HexaMesh::ComputeBounds() const {
  AABB box;
  for (const Vec3& p : positions_) box.Extend(p);
  return box;
}

double HexaMesh::AverageDegree() const {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(adj_.size()) /
         static_cast<double>(positions_.size());
}

size_t HexaMesh::MemoryBytes() const {
  return positions_.capacity() * sizeof(Vec3) +
         adj_offsets_.capacity() * sizeof(uint32_t) +
         adj_.capacity() * sizeof(VertexId) +
         cells_.capacity() * sizeof(HexCell);
}

HexSurfaceInfo ExtractHexSurface(const HexaMesh& mesh) {
  const FaceCount<4> faces(mesh.num_vertices(), mesh.cells(), HexFaces);
  HexSurfaceInfo info;
  faces.Surface(&info.surface_faces, &info.surface_vertices);
  return info;
}

}  // namespace octopus
