// Copyright 2026 The OCTOPUS Reproduction Authors
#include "index/tiled_scan.h"

#include <limits>

namespace octopus {

AABB TiledScan::LoadedBounds(size_t len) const {
  const float* x = coords_.data();
  const float* y = x + kScanBlockVertices;
  const float* z = y + kScanBlockVertices;
  // Per-lane running bounds, so the loop vectorizes; `a < b ? a : b`
  // keeps the running bound when the coordinate is NaN.
  constexpr size_t kLanes = 8;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float lo[3][kLanes], hi[3][kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    lo[0][l] = lo[1][l] = lo[2][l] = kInf;
    hi[0][l] = hi[1][l] = hi[2][l] = -kInf;
  }
  const float* axis[3] = {x, y, z};
  for (size_t a = 0; a < 3; ++a) {
    const float* __restrict c = axis[a];
    size_t j = 0;
    for (; j + kLanes <= len; j += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        lo[a][l] = c[j + l] < lo[a][l] ? c[j + l] : lo[a][l];
        hi[a][l] = c[j + l] > hi[a][l] ? c[j + l] : hi[a][l];
      }
    }
    for (; j < len; ++j) {
      lo[a][0] = c[j] < lo[a][0] ? c[j] : lo[a][0];
      hi[a][0] = c[j] > hi[a][0] ? c[j] : hi[a][0];
    }
    for (size_t l = 1; l < kLanes; ++l) {
      lo[a][0] = lo[a][l] < lo[a][0] ? lo[a][l] : lo[a][0];
      hi[a][0] = hi[a][l] > hi[a][0] ? hi[a][l] : hi[a][0];
    }
  }
  return AABB(Vec3(lo[0][0], lo[1][0], lo[2][0]),
              Vec3(hi[0][0], hi[1][0], hi[2][0]));
}

size_t TiledScan::TestBlock(const AABB& box, VertexId begin, size_t len,
                            std::vector<VertexId>* out) {
  const float* __restrict x = coords_.data();
  const float* __restrict y = x + kScanBlockVertices;
  const float* __restrict z = y + kScanBlockVertices;
  uint8_t* __restrict inside = inside_.data();
  const Vec3 lo = box.min;
  const Vec3 hi = box.max;
  // Branch-free in-box flags and their count; `Contains`'s comparisons.
  uint32_t count = 0;
  for (size_t j = 0; j < len; ++j) {
    const bool in = (x[j] >= lo.x) & (x[j] <= hi.x) & (y[j] >= lo.y) &
                    (y[j] <= hi.y) & (z[j] >= lo.z) & (z[j] <= hi.z);
    inside[j] = in;
    count += in;
  }
  if (count == 0) return 0;
  VertexId* ids = ids_.data();
  size_t k = 0;
  for (size_t j = 0; j < len; ++j) {
    ids[k] = static_cast<VertexId>(begin + j);
    k += inside[j];
  }
  out->insert(out->end(), ids, ids + k);
  return k;
}

}  // namespace octopus
