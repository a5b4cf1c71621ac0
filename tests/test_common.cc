// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit tests for Rng, HilbertCurve3D, Histogram3D, Table, Status/Result
// and FastDiv.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <unordered_set>

#include "common/fast_div.h"
#include "common/hilbert.h"
#include "common/histogram3d.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace octopus {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextFloatRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.NextFloat(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(RngTest, UnitVectorHasUnitNorm) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(rng.NextUnitVector().Norm(), 1.0f, 1e-5f);
  }
}

TEST(RngTest, PointInBoxStaysInBox) {
  Rng rng(13);
  const AABB box(Vec3(-1, 2, 0), Vec3(1, 5, 0.5f));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(box.Contains(rng.NextPointIn(box)));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

// ---------- Hilbert ----------

class HilbertBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(HilbertBitsTest, EncodeDecodeRoundTrip) {
  const int bits = GetParam();
  const HilbertCurve3D curve(bits);
  Rng rng(bits);
  const uint32_t mask = (1u << bits) - 1;
  for (int i = 0; i < 500; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.NextU64()) & mask;
    const uint32_t y = static_cast<uint32_t>(rng.NextU64()) & mask;
    const uint32_t z = static_cast<uint32_t>(rng.NextU64()) & mask;
    uint32_t dx, dy, dz;
    curve.Decode(curve.Encode(x, y, z), &dx, &dy, &dz);
    EXPECT_EQ(x, dx);
    EXPECT_EQ(y, dy);
    EXPECT_EQ(z, dz);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, HilbertBitsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 10, 16, 21));

TEST(HilbertTest, IsBijectionAtLowPrecision) {
  const HilbertCurve3D curve(3);  // 512 cells
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      for (uint32_t z = 0; z < 8; ++z) {
        const uint64_t d = curve.Encode(x, y, z);
        EXPECT_LT(d, 512u);
        EXPECT_TRUE(seen.insert(d).second) << "duplicate key " << d;
      }
    }
  }
  EXPECT_EQ(seen.size(), 512u);
}

TEST(HilbertTest, ConsecutiveKeysAreNeighborCells) {
  // The defining property of the Hilbert curve: consecutive curve
  // positions are adjacent cells (Manhattan distance 1).
  const HilbertCurve3D curve(4);
  uint32_t px, py, pz;
  curve.Decode(0, &px, &py, &pz);
  for (uint64_t d = 1; d < (1ull << 12); ++d) {
    uint32_t x, y, z;
    curve.Decode(d, &x, &y, &z);
    const int manhattan = std::abs(static_cast<int>(x) - static_cast<int>(px)) +
                          std::abs(static_cast<int>(y) - static_cast<int>(py)) +
                          std::abs(static_cast<int>(z) - static_cast<int>(pz));
    ASSERT_EQ(manhattan, 1) << "jump at d=" << d;
    px = x;
    py = y;
    pz = z;
  }
}

TEST(HilbertTest, EncodePointClampsOutOfBounds) {
  const HilbertCurve3D curve(4);
  const AABB bounds(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // Outside points must not crash and must map like boundary points.
  const uint64_t below = curve.EncodePoint(Vec3(-5, -5, -5), bounds);
  const uint64_t at_min = curve.EncodePoint(Vec3(0, 0, 0), bounds);
  EXPECT_EQ(below, at_min);
  const uint64_t above = curve.EncodePoint(Vec3(9, 9, 9), bounds);
  const uint64_t at_max = curve.EncodePoint(Vec3(1, 1, 1), bounds);
  EXPECT_EQ(above, at_max);
}

TEST(HilbertTest, EncodePointMapsNaNToCellZero) {
  const HilbertCurve3D curve(4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float huge = std::numeric_limits<float>::max();
  const AABB bounds(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_EQ(curve.EncodePoint(Vec3(nan, nan, nan), bounds),
            curve.Encode(0, 0, 0));
  EXPECT_EQ(curve.EncodePoint(Vec3(nan, 1, -inf), bounds),
            curve.Encode(0, 15, 0));
  // Bounds whose extent overflows to inf: inf / inf is NaN.
  const AABB wide(Vec3(-huge, -huge, -huge), Vec3(huge, huge, huge));
  EXPECT_EQ(curve.EncodePoint(Vec3(huge, 0, 0), wide), curve.Encode(0, 0, 0));
  EXPECT_EQ(curve.EncodePoint(Vec3(0, 0, 0), AABB(Vec3(0, 0, 0),
                                                  Vec3(nan, 1, 1))),
            curve.Encode(0, 0, 0));
}

// ---------- Histogram3D ----------

TEST(HistogramTest, ExactForFullQuery) {
  Rng rng(3);
  std::vector<Vec3> points;
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  for (int i = 0; i < 5000; ++i) points.push_back(rng.NextPointIn(box));
  Histogram3D h(8);
  h.Build(points);
  EXPECT_NEAR(h.EstimateCount(box.Inflated(0.1f)), 5000.0, 0.5);
  EXPECT_NEAR(h.EstimateSelectivity(box.Inflated(0.1f)), 1.0, 1e-4);
}

TEST(HistogramTest, ZeroOutsideBounds) {
  std::vector<Vec3> points = {Vec3(0.5f, 0.5f, 0.5f)};
  Histogram3D h(4);
  h.Build(points);
  const AABB far_away(Vec3(10, 10, 10), Vec3(11, 11, 11));
  EXPECT_DOUBLE_EQ(h.EstimateCount(far_away), 0.0);
}

TEST(HistogramTest, UniformDataHalfQuery) {
  Rng rng(4);
  std::vector<Vec3> points;
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  for (int i = 0; i < 40000; ++i) points.push_back(rng.NextPointIn(box));
  Histogram3D h(16);
  h.Build(points, box);
  const AABB half(Vec3(0, 0, 0), Vec3(0.5f, 1, 1));
  EXPECT_NEAR(h.EstimateCount(half) / 40000.0, 0.5, 0.02);
}

TEST(HistogramTest, FractionalBucketOverlap) {
  // All mass in one bucket; a query covering half that bucket should
  // estimate about half the mass (uniform-within-bucket assumption).
  std::vector<Vec3> points;
  Rng rng(5);
  const AABB cell(Vec3(0, 0, 0), Vec3(1, 1, 1));
  for (int i = 0; i < 1000; ++i) points.push_back(rng.NextPointIn(cell));
  Histogram3D h(1);  // single bucket
  h.Build(points, cell);
  const AABB half(Vec3(0, 0, 0), Vec3(0.5f, 1, 1));
  EXPECT_NEAR(h.EstimateCount(half), 500.0, 1e-3);
}

TEST(HistogramTest, EmptyPoints) {
  Histogram3D h(4);
  h.Build({});
  EXPECT_DOUBLE_EQ(
      h.EstimateCount(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))), 0.0);
  EXPECT_DOUBLE_EQ(
      h.EstimateSelectivity(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))), 0.0);
}

TEST(HistogramTest, EstimateWithinToleranceOnClusteredData) {
  Rng rng(6);
  std::vector<Vec3> points;
  // Two clusters.
  for (int i = 0; i < 10000; ++i) {
    const Vec3 c = (i % 2 == 0) ? Vec3(0.25f, 0.25f, 0.25f)
                                : Vec3(0.75f, 0.75f, 0.75f);
    points.push_back(c + rng.NextUnitVector() * 0.1f *
                             static_cast<float>(rng.NextDouble()));
  }
  Histogram3D h(16);
  h.Build(points);
  const AABB around_first(Vec3(0.1f, 0.1f, 0.1f), Vec3(0.4f, 0.4f, 0.4f));
  const double est = h.EstimateCount(around_first);
  int exact = 0;
  for (const Vec3& p : points) {
    if (around_first.Contains(p)) ++exact;
  }
  EXPECT_NEAR(est, exact, 0.15 * exact + 50);
}

TEST(HistogramTest, ChunkedBuildEqualsBuild) {
  // Points added chunk by chunk over their tight bounds (how a paged
  // snapshot's positions are bucketed, page by page) give the histogram
  // `Build` gives over all of them.
  Rng rng(8);
  std::vector<Vec3> points;
  const AABB box(Vec3(-1, 0, 2), Vec3(3, 1, 5));
  for (int i = 0; i < 3000; ++i) points.push_back(rng.NextPointIn(box));
  Histogram3D whole(12);
  whole.Build(points);
  AABB bounds;
  for (const Vec3& p : points) bounds.Extend(p);
  Histogram3D chunked(12);
  chunked.Reset(bounds);
  for (size_t i = 0; i < points.size(); i += 341) {
    chunked.Add(std::span<const Vec3>(points).subspan(
        i, std::min<size_t>(341, points.size() - i)));
  }
  EXPECT_EQ(chunked.total_points(), whole.total_points());
  for (int q = 0; q < 50; ++q) {
    const Vec3 a = rng.NextPointIn(box);
    const Vec3 b = rng.NextPointIn(box);
    const AABB query(Vec3(std::min(a.x, b.x), std::min(a.y, b.y),
                          std::min(a.z, b.z)),
                     Vec3(std::max(a.x, b.x), std::max(a.y, b.y),
                          std::max(a.z, b.z)));
    EXPECT_DOUBLE_EQ(chunked.EstimateCount(query),
                     whole.EstimateCount(query))
        << "query " << q;
  }
}

TEST(HistogramTest, NonFiniteAndOverflowingInputClampToBorderBuckets) {
  // Every cast to a bucket index is clamped in floating point first, so
  // boxes and points beyond any int (infinite, overflowing, NaN) are
  // defined behaviour: they land in the border buckets, NaN in bucket 0.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kHuge = std::numeric_limits<float>::max();
  Rng rng(7);
  const AABB unit(Vec3(0, 0, 0), Vec3(1, 1, 1));
  std::vector<Vec3> points;
  for (int i = 0; i < 1000; ++i) points.push_back(rng.NextPointIn(unit));
  points.push_back(Vec3(kNaN, 0.5f, 0.5f));
  points.push_back(Vec3(kHuge, -kHuge, 0.5f));
  Histogram3D h(8);
  h.Build(points, unit);
  EXPECT_EQ(h.total_points(), points.size());
  EXPECT_NEAR(h.EstimateCount(AABB(Vec3(-kInf, -kInf, -kInf),
                                   Vec3(kInf, kInf, kInf))),
              static_cast<double>(points.size()), 1e-6);
  EXPECT_NEAR(h.EstimateCount(AABB(Vec3(-kHuge, -kHuge, -kHuge),
                                   Vec3(kHuge, kHuge, kHuge))),
              static_cast<double>(points.size()), 1e-6);
  const double half = h.EstimateCount(
      AABB(Vec3(-kInf, -kInf, -kInf), Vec3(0.5f, kInf, kInf)));
  EXPECT_GT(half, 0.0);
  EXPECT_LT(half, static_cast<double>(points.size()));
  // A NaN coordinate intersects nothing.
  EXPECT_DOUBLE_EQ(
      h.EstimateCount(AABB(Vec3(kNaN, 0, 0), Vec3(1, 1, 1))), 0.0);
}

// ---------- Table ----------

TEST(TableTest, FormatsAlignedColumns) {
  Table t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer-name", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, MissingCellsRenderEmpty) {
  Table t("demo");
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(TableTest, NumberFormatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Count(0), "0");
  EXPECT_EQ(Table::Count(999), "999");
  EXPECT_EQ(Table::Count(1000), "1,000");
  EXPECT_EQ(Table::Count(1234567), "1,234,567");
  EXPECT_EQ(Table::Megabytes(1024 * 1024), "1.00 MB");
}

// ---------- Status / Result ----------

TEST(StatusTest, OkByDefault) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.Value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ResultTest, MoveValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  const std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingOperation() { return Status::IOError("disk on fire"); }
Status Propagates() {
  OCTOPUS_RETURN_NOT_OK(FailingOperation());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  const Status s = Propagates();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
}

// ---------- FastDiv ----------

// The divisors the page arithmetic admits: 10 positions on the smallest
// page (128 B / 12), 341 positions and 1024 u32s on a 4 KiB page, and
// 2^24 / 4 u32s on a 16 MiB page.
constexpr uint32_t kPageDivisors[] = {10, 341, 1024, 4194304};

TEST(FastDivTest, ExactAtTheEdgesOfThe32BitRange) {
  for (const uint32_t d : kPageDivisors) {
    SCOPED_TRACE("divisor " + std::to_string(d));
    FastDiv div;
    div.Init(d);
    EXPECT_EQ(div.divisor(), d);
    const uint64_t top = UINT32_MAX;
    const uint64_t last_multiple = top / d * d;
    std::vector<uint64_t> numerators = {0, d - 1, d, d + 1, top, top - 1};
    // The multiples of d nearest 2^32, and their neighbours.
    for (const uint64_t m : {last_multiple, last_multiple - d}) {
      numerators.push_back(m);
      numerators.push_back(m - 1);
      if (m + 1 <= top) numerators.push_back(m + 1);
    }
    for (const uint64_t n : numerators) {
      const uint32_t n32 = static_cast<uint32_t>(n);
      EXPECT_EQ(div.Div(n32), n32 / d) << "n = " << n;
    }
  }
}

TEST(FastDivTest, ExactOverASeededRandomSweep) {
  Rng rng(0xD1F);
  for (const uint32_t d : kPageDivisors) {
    FastDiv div;
    div.Init(d);
    for (int i = 0; i < 200000; ++i) {
      const uint32_t n = static_cast<uint32_t>(rng.NextU64());
      ASSERT_EQ(div.Div(n), n / d) << "n = " << n << ", d = " << d;
    }
  }
}

TEST(FastDivTest, RemainderLocatesTheEntryWithinItsPage) {
  FastDiv positions;  // 4 KiB pages of 12-byte positions
  positions.Init(341);
  for (const uint32_t v : {0u, 340u, 341u, 1000u, UINT32_MAX}) {
    const uint32_t page = positions.Div(v);
    EXPECT_EQ(page, v / 341) << "v = " << v;
    EXPECT_EQ(positions.Rem(v, page), v % 341) << "v = " << v;
  }
}

}  // namespace
}  // namespace octopus
