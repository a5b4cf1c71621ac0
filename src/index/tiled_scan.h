// Copyright 2026 The OCTOPUS Reproduction Authors
// The batch-tiled linear scan: the paper's baseline (Eq. 4, test every
// vertex against the box) run for many boxes at once. It is the one
// scan loop: `LinearScan` answers through it, and so do the boxes the
// served Eq. 6 route (octopus/scan_route.h) sends past OCTOPUS.
//
// A batch walks the vertex ids in blocks of `kScanBlockVertices`, tile
// by tile of `kScanTileBoxes` boxes. Each block's positions are read
// once per tile through the mesh accessor into a structure-of-arrays
// copy, and every box of the tile whose range the block can touch is
// tested against that copy in a branch-free loop. The first tile also
// records each block's bounding box; later tiles skip a block for every
// box its bounding box misses, and read no positions for a block that
// no box of the tile can touch. Nothing is kept between batches, so
// deformation costs the scan no maintenance.
//
// Answers are in id order, exactly the vertices `AABB::Contains`
// accepts.
#ifndef OCTOPUS_INDEX_TILED_SCAN_H_
#define OCTOPUS_INDEX_TILED_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "mesh/types.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// Boxes tested per pass over the vertex blocks.
inline constexpr size_t kScanTileBoxes = 64;
/// Vertices per id block: the block's SoA copy (12 B/vertex) and its
/// in-box flags stay in L1 while the tile's boxes are tested.
inline constexpr size_t kScanBlockVertices = 1024;

/// Work of one `TiledScan::Run`.
struct ScanCounts {
  size_t vertices_tested = 0;  ///< (box, vertex) tests
  size_t blocks_skipped = 0;   ///< (box, block) pairs skipped by bounds
  size_t results = 0;          ///< ids appended
};

/// \brief One thread's tiled-scan scratch, reused across batches.
class TiledScan {
 public:
  /// Appends query `q`'s in-box vertex ids, ascending, to
  /// `out[slots[q]]`. Positions are read through `mesh` and may have
  /// moved since the last call.
  template <storage::MeshAccessor Accessor>
  ScanCounts Run(Accessor& mesh, std::span<const AABB> boxes,
                 std::span<const uint32_t> slots,
                 std::vector<VertexId>* out) {
    ScanCounts counts;
    const size_t n = mesh.num_vertices();
    bounds_.resize((n + kScanBlockVertices - 1) / kScanBlockVertices);
    if (coords_.empty()) {
      // Allocated on first use: an executor that never scans holds none.
      coords_.resize(3 * kScanBlockVertices);
      inside_.resize(kScanBlockVertices);
      ids_.resize(kScanBlockVertices);
    }
    for (size_t tile = 0; tile < boxes.size(); tile += kScanTileBoxes) {
      const size_t tile_size = std::min(kScanTileBoxes, boxes.size() - tile);
      const bool first_tile = tile == 0;
      for (size_t block = 0; block < bounds_.size(); ++block) {
        const auto begin = static_cast<VertexId>(block * kScanBlockVertices);
        const size_t len = std::min(kScanBlockVertices, n - begin);
        if (first_tile) {
          Load(mesh, begin, len);
          bounds_[block] = LoadedBounds(len);
        }
        size_t hits = 0;
        for (size_t b = 0; b < tile_size; ++b) {
          hit_boxes_[hits] = static_cast<uint8_t>(b);
          hits += bounds_[block].Intersects(boxes[tile + b]);
        }
        counts.blocks_skipped += tile_size - hits;
        if (hits == 0) continue;
        if (!first_tile) Load(mesh, begin, len);
        counts.vertices_tested += hits * len;
        for (size_t h = 0; h < hits; ++h) {
          const size_t q = tile + hit_boxes_[h];
          counts.results += TestBlock(boxes[q], begin, len, &out[slots[q]]);
        }
      }
    }
    return counts;
  }

  size_t ScratchBytes() const {
    return bounds_.capacity() * sizeof(AABB) +
           coords_.capacity() * sizeof(float) +
           inside_.capacity() * sizeof(uint8_t) +
           ids_.capacity() * sizeof(VertexId);
  }

 private:
  /// Copies positions [begin, begin + len) into the SoA block.
  template <storage::MeshAccessor Accessor>
  void Load(Accessor& mesh, VertexId begin, size_t len) {
    float* x = coords_.data();
    float* y = x + kScanBlockVertices;
    float* z = y + kScanBlockVertices;
    if constexpr (requires { mesh.ReadPositions(begin, len, x, y, z); }) {
      mesh.ReadPositions(begin, len, x, y, z);
    } else {
      for (size_t j = 0; j < len; ++j) {
        const Vec3 p = mesh.position(static_cast<VertexId>(begin + j));
        x[j] = p.x;
        y[j] = p.y;
        z[j] = p.z;
      }
    }
  }

  /// The bounding box of the loaded block (NaN coordinates ignored).
  AABB LoadedBounds(size_t len) const;

  /// Appends the loaded block's vertices inside `box`; returns how many.
  size_t TestBlock(const AABB& box, VertexId begin, size_t len,
                   std::vector<VertexId>* out);

  std::vector<AABB> bounds_;  ///< per id block, from the batch's first tile
  uint8_t hit_boxes_[kScanTileBoxes] = {};
  /// The loaded block: x, then y, then z, `kScanBlockVertices` each.
  std::vector<float> coords_;
  std::vector<uint8_t> inside_;  ///< per loaded vertex: in the box
  std::vector<VertexId> ids_;    ///< the in-box ids, compacted

};

}  // namespace octopus

#endif  // OCTOPUS_INDEX_TILED_SCAN_H_
