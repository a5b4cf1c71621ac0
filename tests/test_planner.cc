// Copyright 2026 The OCTOPUS Reproduction Authors
// Tests for the model-driven adaptive executor (paper Sec. VI-B /
// VIII-B: use Eq. 6 to decide when OCTOPUS beats the linear scan).
#include <gtest/gtest.h>

#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "octopus/planner.h"
#include "sim/random_deformer.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

TEST(PlannerTest, BreakEvenIsCalibrated) {
  // The basin slab has S ~ 0.15: OCTOPUS wins small queries there, so
  // the Eq. 6 threshold must land in (0, 1).
  const TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  EXPECT_GT(adaptive.break_even_selectivity(), 0.0);
  EXPECT_LT(adaptive.break_even_selectivity(), 1.0);
}

TEST(PlannerTest, AlwaysScanWhenProbeCannotWin) {
  // A tiny box mesh is ~1/3 surface: with our calibrated gather constant
  // the probe alone can exceed a scan, Eq. 6 goes non-positive, and the
  // planner must route EVERYTHING to the scan — the model working as
  // intended, not a failure.
  const TetraMesh mesh = MakeBox(10);
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  if (adaptive.break_even_selectivity() <= 0.0) {
    std::vector<VertexId> out;
    const AABB tiny(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
    adaptive.RangeQuery(mesh, tiny, &out);
    EXPECT_EQ(adaptive.queries_routed_to_scan(), 1u);
    EXPECT_EQ(Sorted(out), BruteForceRangeQuery(mesh, tiny));
  }
}

TEST(PlannerTest, RoutesSmallQueriesToOctopusLargeToScan) {
  const TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  std::vector<VertexId> out;

  // Tiny query: well below any plausible break-even.
  const AABB tiny(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
  out.clear();
  adaptive.RangeQuery(mesh, tiny, &out);
  EXPECT_EQ(adaptive.queries_routed_to_octopus(), 1u);
  EXPECT_EQ(adaptive.queries_routed_to_scan(), 0u);

  // Whole-mesh query: selectivity ~1, far above break-even.
  const AABB all(Vec3(-1, -1, -1), Vec3(2, 2, 2));
  out.clear();
  adaptive.RangeQuery(mesh, all, &out);
  EXPECT_EQ(adaptive.queries_routed_to_octopus(), 1u);
  EXPECT_EQ(adaptive.queries_routed_to_scan(), 1u);
  EXPECT_EQ(out.size(), mesh.num_vertices());
}

TEST(PlannerTest, ExactEitherWay) {
  TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  RandomDeformer deformer(0.01f);
  deformer.Bind(mesh);
  Rng rng(3);
  for (int step = 1; step <= 4; ++step) {
    deformer.ApplyStep(step, &mesh);
    adaptive.BeforeQueries(mesh);
    for (int q = 0; q < 6; ++q) {
      // Mix of sizes straddling the break-even.
      const float h = rng.NextFloat(0.015f, 0.45f);
      const VertexId center =
          static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
      const AABB box = AABB::FromCenterHalfExtent(mesh.position(center),
                                                  Vec3(h, h, h));
      std::vector<VertexId> got;
      adaptive.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
  // With this size mix, both paths must have been exercised.
  EXPECT_GT(adaptive.queries_routed_to_octopus(), 0u);
  EXPECT_GT(adaptive.queries_routed_to_scan(), 0u);
}

TEST(PlannerTest, CrawlHaloMakesEveryOctopusAnswerExact) {
  // ExactEitherWay's workload with every box sent through OCTOPUS, so the
  // check does not depend on where the calibration puts the break-even.
  TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  Octopus octopus(OctopusOptions{.route_to_scan = false});
  octopus.Build(mesh);
  RandomDeformer deformer(0.01f);
  deformer.Bind(mesh);
  VisitedMarks marks;
  Rng rng(3);
  size_t repaired = 0;
  for (int step = 1; step <= 4; ++step) {
    deformer.ApplyStep(step, &mesh);
    for (int q = 0; q < 6; ++q) {
      const float h = rng.NextFloat(0.015f, 0.45f);
      const VertexId center =
          static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
      const AABB box = AABB::FromCenterHalfExtent(mesh.position(center),
                                                  Vec3(h, h, h));
      std::vector<VertexId> got = {kInvalidVertex};  // kept: appends only
      octopus.RangeQuery(mesh, box, &got);
      const size_t crawled = got.size();
      CrawlHalo(mesh, box, 1, &got, &marks);
      if (got.size() > crawled) ++repaired;
      ASSERT_EQ(got.front(), kInvalidVertex);
      got.erase(got.begin());
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
  // The paper's crawl alone misses vertices on this workload.
  EXPECT_GT(repaired, 0u);
}

TEST(PlannerTest, FootprintIncludesRouteHistogram) {
  const TetraMesh mesh = MakeBox(8);
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  Octopus pure(OctopusOptions{.route_to_scan = false});
  pure.Build(mesh);
  EXPECT_GT(adaptive.octopus().route().FootprintBytes(), 0u);
  EXPECT_EQ(adaptive.FootprintBytes(),
            pure.FootprintBytes() +
                adaptive.octopus().route().FootprintBytes());
}

}  // namespace
}  // namespace octopus
