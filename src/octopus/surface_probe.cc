// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/surface_probe.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace octopus {

size_t ProbeStride(double surface_sample_fraction) {
  if (surface_sample_fraction >= 1.0) return 1;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(1.0 / surface_sample_fraction)));
}

void SurfaceProbe::ProbeTile(std::span<const AABB> boxes) {
  const size_t n = boxes.size();
  float closest_d2[kProbeTileBoxes];
  for (size_t b = 0; b < n; ++b) {
    starts_[b].clear();
    closest_[b] = kInvalidVertex;
    closest_d2[b] = std::numeric_limits<float>::max();
  }
  for (size_t block = 0; block < count_; block += kProbeBlockVertices) {
    const size_t len = std::min(kProbeBlockVertices, count_ - block);
    const float* __restrict x = x_.data() + block;
    const float* __restrict y = y_.data() + block;
    const float* __restrict z = z_.data() + block;
    float* __restrict d2 = d2_;
    for (size_t b = 0; b < n; ++b) {
      const AABB& box = boxes[b];
      // Branch-free distance pass; std::max(std::max(a, 0), c) is
      // SquaredDistanceTo's std::max({a, 0, c}) operation for operation.
      // Alongside: the in-box count, and the block's minimum distance as
      // a lane-wise integer minimum over the bit patterns (d2 >= +0, so
      // with the sign bit cleared they order like the values and any NaN
      // sorts last).
      uint32_t zeros = 0;
      int32_t min_bits = std::numeric_limits<int32_t>::max();
      for (size_t j = 0; j < len; ++j) {
        const float dx =
            std::max(std::max(box.min.x - x[j], 0.0f), x[j] - box.max.x);
        const float dy =
            std::max(std::max(box.min.y - y[j], 0.0f), y[j] - box.max.y);
        const float dz =
            std::max(std::max(box.min.z - z[j], 0.0f), z[j] - box.max.z);
        const float d = dx * dx + dy * dy + dz * dz;
        d2[j] = d;
        zeros += d == 0.0f;
        const int32_t bits = std::bit_cast<int32_t>(d) & 0x7fffffff;
        min_bits = bits < min_bits ? bits : min_bits;
      }
      std::vector<VertexId>& starts = starts_[b];
      if (zeros != 0) {
        for (size_t j = 0; j < len; ++j) {
          if (d2[j] == 0.0f) {
            starts.push_back(surface_[(block + j) * stride_]);
          }
        }
      } else if (starts.empty()) {
        // Still dry: the sequential scan's fallback is the first vertex
        // with the strictly smallest distance, so only a block that
        // improves on it needs its first argmin found.
        const float block_min = std::bit_cast<float>(min_bits);
        if (block_min < closest_d2[b]) {
          size_t j = 0;
          while (d2[j] != block_min) ++j;
          closest_d2[b] = block_min;
          closest_[b] = surface_[(block + j) * stride_];
        }
      }
    }
  }
}

size_t SurfaceProbe::ScratchBytes() const {
  size_t bytes = (x_.capacity() + y_.capacity() + z_.capacity()) *
                     sizeof(float) +
                 sizeof(d2_);
  for (const auto& starts : starts_) {
    bytes += starts.capacity() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace octopus
