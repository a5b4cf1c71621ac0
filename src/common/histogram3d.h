// Copyright 2026 The OCTOPUS Reproduction Authors
// Uniform 3D equi-width histogram for spatial selectivity estimation.
// The paper's analytical model (Sec. IV-G) estimates query selectivity with
// the histogram technique of Acharya, Poosala & Ramaswamy (SIGMOD '99); this
// is the equi-width variant specialized to point data.
#ifndef OCTOPUS_COMMON_HISTOGRAM3D_H_
#define OCTOPUS_COMMON_HISTOGRAM3D_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "common/vec3.h"

namespace octopus {

/// \brief Equi-width 3D histogram over point counts.
///
/// Built once over a snapshot of the vertex positions; the cost model uses
/// it to estimate `Selectivity%` of a query box without executing it. Small
/// estimation error is expected and tolerated by the model (paper reports
/// ~2% end-to-end model error).
class Histogram3D {
 public:
  /// \param resolution number of buckets per axis (>= 1).
  explicit Histogram3D(int resolution = 16);

  /// Rebuild over the given points. Bounds are the tight AABB of `points`
  /// unless `bounds` is supplied non-empty.
  void Build(std::span<const Vec3> points, const AABB& bounds = AABB());

  /// Incremental build, for points that arrive in chunks: `Reset` to
  /// empty buckets over `bounds`, then `Add` every chunk. Over the tight
  /// bounds of all chunks this equals `Build` of their concatenation.
  void Reset(const AABB& bounds);
  void Add(std::span<const Vec3> points);

  /// Estimated number of points inside `query`, assuming uniform density
  /// inside each bucket (fractional-overlap weighting). Any box is
  /// accepted: infinite, overflowing or NaN coordinates clamp to the
  /// border buckets.
  double EstimateCount(const AABB& query) const;

  /// Estimated selectivity in [0, 1]: EstimateCount / total points.
  double EstimateSelectivity(const AABB& query) const;

  int resolution() const { return resolution_; }
  uint64_t total_points() const { return total_; }
  const AABB& bounds() const { return bounds_; }

  /// Memory held by the bucket array, in bytes.
  size_t FootprintBytes() const {
    return buckets_.capacity() * sizeof(uint32_t);
  }

 private:
  size_t BucketIndex(int bx, int by, int bz) const {
    return (static_cast<size_t>(bz) * resolution_ + by) * resolution_ + bx;
  }

  int resolution_;
  AABB bounds_;
  Vec3 bucket_size_;
  uint64_t total_ = 0;
  std::vector<uint32_t> buckets_;
};

}  // namespace octopus

#endif  // OCTOPUS_COMMON_HISTOGRAM3D_H_
