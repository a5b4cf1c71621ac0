// Copyright 2026 The OCTOPUS Reproduction Authors
// 3D Hilbert space-filling curve used by the graph data-organization
// optimization (paper Sec. IV-H1): sorting vertices by Hilbert index places
// spatially close vertices close in memory, improving cache hit rates of the
// crawling phase.
#ifndef OCTOPUS_COMMON_HILBERT_H_
#define OCTOPUS_COMMON_HILBERT_H_

#include <cstdint>

#include "common/aabb.h"
#include "common/vec3.h"

namespace octopus {

/// \brief Encoder for the 3D Hilbert curve on a 2^bits grid per axis.
class HilbertCurve3D {
 public:
  /// \param bits precision per axis (1..21; 21 bits * 3 axes = 63-bit keys).
  explicit HilbertCurve3D(int bits = 10);

  int bits() const { return bits_; }

  /// Distance along the curve of integer grid cell (x, y, z).
  /// Coordinates must be < 2^bits.
  uint64_t Encode(uint32_t x, uint32_t y, uint32_t z) const;

  /// Inverse of `Encode`.
  void Decode(uint64_t d, uint32_t* x, uint32_t* y, uint32_t* z) const;

  /// Curve distance of a point, after normalizing it into `bounds`.
  /// Points outside the bounds are clamped to the boundary cells; a NaN
  /// coordinate maps to cell 0 of its axis.
  uint64_t EncodePoint(const Vec3& p, const AABB& bounds) const;

 private:
  int bits_;
};

}  // namespace octopus

#endif  // OCTOPUS_COMMON_HILBERT_H_
