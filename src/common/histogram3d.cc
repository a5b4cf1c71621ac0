// Copyright 2026 The OCTOPUS Reproduction Authors
#include "common/histogram3d.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace octopus {

namespace {

// The bucket of a coordinate `t` bucket widths past the lower bound,
// clamped to [0, resolution) in floating point before the cast: an
// infinite or overflowing `t` must not reach the int conversion, and NaN
// maps to bucket 0.
int ClampBucket(float t, int resolution) {
  if (!(t > 0.0f)) return 0;
  if (t >= static_cast<float>(resolution - 1)) return resolution - 1;
  return static_cast<int>(t);
}

}  // namespace

Histogram3D::Histogram3D(int resolution) : resolution_(resolution) {
  assert(resolution >= 1);
}

void Histogram3D::Build(std::span<const Vec3> points, const AABB& bounds) {
  AABB tight = bounds;
  if (tight.Empty()) {
    for (const Vec3& p : points) tight.Extend(p);
  }
  Reset(tight);
  Add(points);
}

void Histogram3D::Reset(const AABB& bounds) {
  bounds_ = bounds;
  total_ = 0;
  buckets_.assign(
      static_cast<size_t>(resolution_) * resolution_ * resolution_, 0);
  const Vec3 ext = bounds_.Empty() ? Vec3() : bounds_.Extent();
  bucket_size_ = Vec3(ext.x / resolution_, ext.y / resolution_,
                      ext.z / resolution_);
}

void Histogram3D::Add(std::span<const Vec3> points) {
  total_ += points.size();
  if (points.empty() || bounds_.Empty()) return;
  auto clamp_bucket = [this](float v, float lo, float size) -> int {
    if (size <= 0.0f) return 0;
    return ClampBucket((v - lo) / size, resolution_);
  };
  for (const Vec3& p : points) {
    const int bx = clamp_bucket(p.x, bounds_.min.x, bucket_size_.x);
    const int by = clamp_bucket(p.y, bounds_.min.y, bucket_size_.y);
    const int bz = clamp_bucket(p.z, bounds_.min.z, bucket_size_.z);
    ++buckets_[BucketIndex(bx, by, bz)];
  }
}

double Histogram3D::EstimateCount(const AABB& query) const {
  if (total_ == 0 || bounds_.Empty() || !query.Intersects(bounds_)) return 0.0;

  // Range of buckets overlapped by the query on each axis.
  auto bucket_range = [this](float qlo, float qhi, float lo,
                             float size) -> std::pair<int, int> {
    if (size <= 0.0f) return {0, 0};
    return {ClampBucket(std::floor((qlo - lo) / size), resolution_),
            ClampBucket(std::floor((qhi - lo) / size), resolution_)};
  };
  const auto [x0, x1] =
      bucket_range(query.min.x, query.max.x, bounds_.min.x, bucket_size_.x);
  const auto [y0, y1] =
      bucket_range(query.min.y, query.max.y, bounds_.min.y, bucket_size_.y);
  const auto [z0, z1] =
      bucket_range(query.min.z, query.max.z, bounds_.min.z, bucket_size_.z);

  // Fraction of a bucket interval [b*size, (b+1)*size) covered by the query.
  auto overlap_frac = [](int b, float qlo, float qhi, float lo,
                         float size) -> double {
    if (size <= 0.0f) return 1.0;
    const float blo = lo + b * size;
    const float bhi = blo + size;
    const float olo = std::max(qlo, blo);
    const float ohi = std::min(qhi, bhi);
    if (ohi <= olo) return 0.0;
    return static_cast<double>(ohi - olo) / size;
  };

  double count = 0.0;
  for (int bz = z0; bz <= z1; ++bz) {
    const double fz =
        overlap_frac(bz, query.min.z, query.max.z, bounds_.min.z,
                     bucket_size_.z);
    for (int by = y0; by <= y1; ++by) {
      const double fy =
          overlap_frac(by, query.min.y, query.max.y, bounds_.min.y,
                       bucket_size_.y);
      for (int bx = x0; bx <= x1; ++bx) {
        const double fx =
            overlap_frac(bx, query.min.x, query.max.x, bounds_.min.x,
                         bucket_size_.x);
        count += buckets_[BucketIndex(bx, by, bz)] * fx * fy * fz;
      }
    }
  }
  return count;
}

double Histogram3D::EstimateSelectivity(const AABB& query) const {
  if (total_ == 0) return 0.0;
  return EstimateCount(query) / static_cast<double>(total_);
}

}  // namespace octopus
