// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit tests for the OCTOPUS building blocks: surface index, crawler,
// directed walk, cost model and Hilbert layout.
#include <gtest/gtest.h>

#include <unordered_set>

#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_stats.h"
#include "octopus/cost_model.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "mesh/hilbert_layout.h"
#include "octopus/query_executor.h"
#include "octopus/surface_index.h"
#include "sim/restructurer.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// ---------- SurfaceIndex ----------

TEST(SurfaceIndexTest, MatchesExtraction) {
  const TetraMesh mesh = MakeBox(5);
  SurfaceIndex index;
  index.Build(mesh);
  const SurfaceInfo reference = ExtractSurface(mesh);
  EXPECT_EQ(index.num_surface_vertices(), reference.surface_vertices.size());
  for (VertexId v : reference.surface_vertices) {
    EXPECT_TRUE(index.Contains(v));
  }
  // Probe order covers exactly the surface set.
  std::unordered_set<VertexId> probe(index.probe_order().begin(),
                                     index.probe_order().end());
  EXPECT_EQ(probe.size(), reference.surface_vertices.size());
}

TEST(SurfaceIndexTest, ProbeOrderIsSortedForStreamingAccess) {
  // Sorted ids make the probe stream forward through the position array
  // (sequential-scan-like cost CS) and make strided sampling the paper's
  // "equidistant" surface sample.
  const TetraMesh mesh = MakeBox(4);
  SurfaceIndex index;
  index.Build(mesh);
  const auto order = index.probe_order();
  ASSERT_FALSE(order.empty());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

TEST(SurfaceIndexTest, ProbeOrderStaysSortedAcrossMaintenance) {
  TetraMesh mesh = MakeBox(3);
  SurfaceIndex index(SurfaceIndex::Options{.support_restructuring = true});
  index.Build(mesh);
  Rng rng(3);
  for (int round = 0; round < 3; ++round) {
    auto delta = RandomRefinement(&mesh, 5, &rng);
    ASSERT_TRUE(delta.ok());
    index.ApplyDelta(delta.Value());
    const SurfaceInfo info = ExtractSurface(mesh);
    const FaceKey face =
        info.surface_faces[rng.NextBelow(info.surface_faces.size())];
    auto grow = AddTetOnSurfaceFace(
        &mesh, face,
        (mesh.position(face[0]) + mesh.position(face[1]) +
         mesh.position(face[2])) /
                3.0f +
            Vec3(0.0f, 0.0f, -0.2f));
    if (grow.ok()) index.ApplyDelta(grow.Value());
    const auto order = index.probe_order();
    for (size_t i = 1; i < order.size(); ++i) {
      ASSERT_LT(order[i - 1], order[i]) << "round " << round;
    }
  }
}

TEST(SurfaceIndexTest, IncrementalMaintenanceMatchesRebuild) {
  // Property: after any sequence of restructuring operations, the
  // incrementally maintained index equals a from-scratch rebuild.
  TetraMesh mesh = MakeBox(3);
  SurfaceIndex incremental(
      SurfaceIndex::Options{.support_restructuring = true});
  incremental.Build(mesh);

  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    // Mix of interior splits and surface extrusions.
    auto split = SplitTetAtCentroid(
        &mesh, static_cast<TetId>(rng.NextBelow(mesh.num_tetrahedra())));
    ASSERT_TRUE(split.ok());
    incremental.ApplyDelta(split.Value());

    const SurfaceInfo current = ExtractSurface(mesh);
    const FaceKey face =
        current.surface_faces[rng.NextBelow(current.surface_faces.size())];
    const Vec3 centroid = (mesh.position(face[0]) + mesh.position(face[1]) +
                           mesh.position(face[2])) /
                          3.0f;
    const Vec3 outward = centroid - Vec3(0.5f, 0.5f, 0.5f);
    auto grow = AddTetOnSurfaceFace(&mesh, face, centroid + outward * 0.4f);
    ASSERT_TRUE(grow.ok());
    incremental.ApplyDelta(grow.Value());

    SurfaceIndex rebuilt;
    rebuilt.Build(mesh);
    ASSERT_EQ(incremental.num_surface_vertices(),
              rebuilt.num_surface_vertices())
        << "round " << round;
    for (VertexId v : rebuilt.probe_order()) {
      ASSERT_TRUE(incremental.Contains(v)) << "round " << round;
    }
  }
}

TEST(SurfaceIndexTest, FootprintScalesWithSurface) {
  const TetraMesh small = MakeBox(3);
  const TetraMesh large = MakeBox(8);
  SurfaceIndex si;
  SurfaceIndex li;
  si.Build(small);
  li.Build(large);
  EXPECT_GT(li.FootprintBytes(), si.FootprintBytes());
  EXPECT_GT(li.HashTableBytes(), 0u);
  EXPECT_LE(li.HashTableBytes(), li.FootprintBytes());
}

// ---------- Crawler ----------

TEST(CrawlerTest, FullCoverageOnConvexMesh) {
  const TetraMesh mesh = MakeBox(8);
  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  const AABB q(Vec3(0.2f, 0.3f, 0.1f), Vec3(0.7f, 0.8f, 0.6f));
  const auto expected = BruteForceRangeQuery(mesh, q);
  ASSERT_FALSE(expected.empty());
  // Start from a single vertex inside the query.
  std::vector<VertexId> starts = {expected.front()};
  std::vector<VertexId> got;
  const CrawlStats stats = crawler.Crawl(mesh, q, starts, &got);
  EXPECT_EQ(Sorted(got), expected);
  EXPECT_EQ(stats.vertices_inside, expected.size());
  EXPECT_GT(stats.edges_traversed, expected.size());
}

TEST(CrawlerTest, StartsOutsideBoxAreIgnored) {
  const TetraMesh mesh = MakeBox(5);
  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  const AABB q(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  std::vector<VertexId> starts = {0};  // corner vertex, far outside
  ASSERT_FALSE(q.Contains(mesh.position(0)));
  std::vector<VertexId> got;
  crawler.Crawl(mesh, q, starts, &got);
  EXPECT_TRUE(got.empty());
}

TEST(CrawlerTest, DuplicateStartsYieldNoDuplicates) {
  const TetraMesh mesh = MakeBox(5);
  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  const AABB q(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const VertexId s = 10;
  std::vector<VertexId> starts = {s, s, s};
  std::vector<VertexId> got;
  crawler.Crawl(mesh, q, starts, &got);
  std::unordered_set<VertexId> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), got.size());
  EXPECT_EQ(got.size(), mesh.num_vertices());
}

TEST(CrawlerTest, ReusableAcrossQueriesViaEpochs) {
  const TetraMesh mesh = MakeBox(6);
  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const Vec3 c = rng.NextPointIn(AABB(Vec3(0.2f, 0.2f, 0.2f),
                                        Vec3(0.8f, 0.8f, 0.8f)));
    const AABB q = AABB::FromCenterHalfExtent(c, Vec3(0.2f, 0.2f, 0.2f));
    const auto expected = BruteForceRangeQuery(mesh, q);
    if (expected.empty()) continue;
    std::vector<VertexId> starts = {expected.front()};
    std::vector<VertexId> got;
    crawler.Crawl(mesh, q, starts, &got);
    ASSERT_EQ(Sorted(got), expected) << "iteration " << i;
  }
}

TEST(CrawlerTest, EpochCounterWraparoundResetsVisitedMarks) {
  // The visited array is never cleared between queries; a per-query
  // epoch stamp makes clearing O(1) — until the 8-bit counter wraps,
  // where stale marks from 255 crawls ago could alias the fresh epoch.
  // Leave epoch-1 stamps behind, force the counter to the wrap boundary
  // and verify the reset path produces correct results on, across, and
  // after the wrap.
  const TetraMesh mesh = MakeBox(6);
  const AABB q(Vec3(0.25f, 0.25f, 0.25f), Vec3(0.75f, 0.75f, 0.75f));
  const auto expected = BruteForceRangeQuery(mesh, q);
  ASSERT_FALSE(expected.empty());
  const std::vector<VertexId> starts = {expected.front()};
  const AABB q2(Vec3(0.0f, 0.0f, 0.0f), Vec3(0.4f, 0.4f, 0.4f));
  const auto expected2 = BruteForceRangeQuery(mesh, q2);
  ASSERT_FALSE(expected2.empty());
  const std::vector<VertexId> starts2 = {expected2.front()};

  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  // Stamps `q`'s region with epoch 1, the epoch the wrap restarts at.
  std::vector<VertexId> got;
  crawler.Crawl(mesh, q, starts, &got);
  EXPECT_EQ(crawler.marks().epoch(), 1u);
  EXPECT_EQ(Sorted(got), expected);

  // Stamp `q2`'s region with the maximum epoch value — the exact value
  // stale marks would hold right before the wrap. Most of `q`'s region
  // keeps its epoch-1 stamps.
  crawler.marks().set_epoch_for_testing(0xFEu);
  got.clear();
  crawler.Crawl(mesh, q2, starts2, &got);
  EXPECT_EQ(crawler.marks().epoch(), 0xFFu);
  EXPECT_EQ(Sorted(got), expected2);

  // This crawl increments 0xFF -> 0: the wrap path must reset all marks
  // and restart at 1; without the reset, the first crawl's epoch-1
  // marks would alias the new epoch and cut this crawl short.
  got.clear();
  crawler.Crawl(mesh, q, starts, &got);
  EXPECT_EQ(crawler.marks().epoch(), 1u);
  EXPECT_EQ(Sorted(got), expected);

  // And the post-wrap epoch sequence keeps deduplicating correctly: a
  // different query must not see leftover marks from the wrap reset.
  got.clear();
  crawler.Crawl(mesh, q2, starts2, &got);
  EXPECT_EQ(crawler.marks().epoch(), 2u);
  EXPECT_EQ(Sorted(got), expected2);
}

TEST(CrawlerTest, CrawlDependsOnResultSizeNotMeshSize) {
  // The scaling claim in one assertion: the same query on a mesh 8x the
  // size touches a similar number of vertices.
  const TetraMesh small = MakeBox(8);
  const TetraMesh large = MakeBox(16);
  const AABB q(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  Crawler crawler;

  crawler.EnsureSize(small.num_vertices());
  auto expected_small = BruteForceRangeQuery(small, q);
  const std::vector<VertexId> small_starts = {expected_small.front()};
  std::vector<VertexId> got;
  const CrawlStats s1 = crawler.Crawl(small, q, small_starts, &got);

  crawler.EnsureSize(large.num_vertices());
  auto expected_large = BruteForceRangeQuery(large, q);
  const std::vector<VertexId> large_starts = {expected_large.front()};
  got.clear();
  const CrawlStats s2 = crawler.Crawl(large, q, large_starts, &got);

  // 16^3 mesh has 8x vertices; the fixed-size query has ~8x results, so
  // touched counts scale with result size. Verify touched counts stay
  // proportional to results (within 3x), NOT to mesh size.
  const double ratio1 = static_cast<double>(s1.vertices_touched) /
                        static_cast<double>(expected_small.size());
  const double ratio2 = static_cast<double>(s2.vertices_touched) /
                        static_cast<double>(expected_large.size());
  EXPECT_LT(ratio2, ratio1 * 3.0);
}

// ---------- Crawler visited modes ----------

TEST(CrawlerModeTest, HashSetModeMatchesEpochArray) {
  const TetraMesh mesh = MakeBox(9);
  Crawler fast(VisitedMode::kEpochArray);
  Crawler compact(VisitedMode::kHashSet);
  fast.EnsureSize(mesh.num_vertices());
  compact.EnsureSize(mesh.num_vertices());
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    const Vec3 c = rng.NextPointIn(AABB(Vec3(0.2f, 0.2f, 0.2f),
                                        Vec3(0.8f, 0.8f, 0.8f)));
    const AABB q = AABB::FromCenterHalfExtent(c, Vec3(0.2f, 0.2f, 0.2f));
    const auto expected = BruteForceRangeQuery(mesh, q);
    if (expected.empty()) continue;
    const std::vector<VertexId> starts = {expected.front()};
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    const CrawlStats sa = fast.Crawl(mesh, q, starts, &a);
    const CrawlStats sb = compact.Crawl(mesh, q, starts, &b);
    ASSERT_EQ(Sorted(a), Sorted(b));
    EXPECT_EQ(sa.vertices_inside, sb.vertices_inside);
    EXPECT_EQ(sa.edges_traversed, sb.edges_traversed);
  }
}

TEST(CrawlerModeTest, HashSetScratchScalesWithResultNotMesh) {
  // The paper's Fig. 10(b) memory behaviour: crawl scratch proportional
  // to the result neighborhood, not to the mesh.
  const TetraMesh mesh = MakeBox(16);
  const AABB small_q(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
  const AABB big_q(Vec3(0.1f, 0.1f, 0.1f), Vec3(0.9f, 0.9f, 0.9f));

  auto scratch_after = [&](const AABB& q) {
    Crawler crawler(VisitedMode::kHashSet);
    const auto inside = BruteForceRangeQuery(mesh, q);
    const std::vector<VertexId> starts = {inside.front()};
    std::vector<VertexId> out;
    crawler.Crawl(mesh, q, starts, &out);
    return crawler.ScratchBytes();
  };
  const size_t small_scratch = scratch_after(small_q);
  const size_t big_scratch = scratch_after(big_q);
  EXPECT_LT(small_scratch, big_scratch / 4);
  // And both stay below the O(V) epoch array for small queries.
  EXPECT_LT(small_scratch,
            mesh.num_vertices() * sizeof(VisitedMarks::Stamp));
}

TEST(CrawlerModeTest, OctopusExactWithHashSetCrawl) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.2).MoveValue();
  Octopus octo(OctopusOptions{.visited_mode = VisitedMode::kHashSet});
  octo.Build(mesh);
  Rng rng(78);
  for (int i = 0; i < 10; ++i) {
    const VertexId center =
        static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
    const AABB q = AABB::FromCenterHalfExtent(mesh.position(center),
                                              Vec3(0.12f, 0.12f, 0.12f));
    std::vector<VertexId> got;
    octo.RangeQuery(mesh, q, &got);
    ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, q)) << "query " << i;
  }
}

// ---------- DirectedWalk ----------

TEST(DirectedWalkTest, FindsInteriorQuery) {
  const TetraMesh mesh = MakeBox(10);
  const AABB q(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
  // Start from a far corner.
  const WalkResult r = DirectedWalk(mesh, q, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(q.Contains(mesh.position(r.found)));
  EXPECT_GT(r.vertices_visited, 0u);
}

TEST(DirectedWalkTest, StartInsideReturnsImmediately) {
  const TetraMesh mesh = MakeBox(6);
  const AABB q(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const WalkResult r = DirectedWalk(mesh, q, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.found, 5u);
  EXPECT_EQ(r.vertices_visited, 0u);
}

TEST(DirectedWalkTest, ReportsFailureForDisjointQuery) {
  const TetraMesh mesh = MakeBox(6);
  const AABB q(Vec3(5, 5, 5), Vec3(6, 6, 6));  // far outside the mesh
  const WalkResult r = DirectedWalk(mesh, q, 0);
  EXPECT_FALSE(r.ok());
}

TEST(DirectedWalkTest, InvalidStart) {
  const TetraMesh mesh = MakeBox(3);
  const WalkResult r =
      DirectedWalk(mesh, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)), kInvalidVertex);
  EXPECT_FALSE(r.ok());
}

TEST(DirectedWalkTest, RobustToJitterLocalMinima) {
  // Regression: on a jittered mesh, a purely greedy descent can stall in
  // a local minimum of the distance landscape and wrongly report "no
  // intersection" for an interior query. The bounded best-first walk must
  // not. (Observed with this exact setup in the quickstart example.)
  TetraMesh mesh = GenerateBoxMesh(20, 20, 20,
                                   AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
                       .MoveValue();
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    // Fresh jitter each trial.
    for (Vec3& p : mesh.mutable_positions()) {
      p += rng.NextUnitVector() *
           (0.01f * static_cast<float>(rng.NextDouble()));
    }
    const Vec3 center = rng.NextPointIn(
        AABB(Vec3(0.3f, 0.3f, 0.3f), Vec3(0.7f, 0.7f, 0.7f)));
    const AABB q =
        AABB::FromCenterHalfExtent(center, Vec3(0.07f, 0.07f, 0.07f));
    const WalkResult r = DirectedWalk(mesh, q, 0);
    ASSERT_TRUE(r.ok()) << "trial " << trial;
    EXPECT_TRUE(q.Contains(mesh.position(r.found)));
  }
}

TEST(DirectedWalkTest, MissExplorationIsBounded) {
  // A clear miss must be detected after exploring only a small shell, not
  // the whole mesh.
  const TetraMesh mesh = MakeBox(14);
  const AABB q(Vec3(2, 0.4f, 0.4f), Vec3(2.2f, 0.6f, 0.6f));
  // Start from the surface vertex closest to the box (as OCTOPUS does).
  VertexId closest = 0;
  float best = std::numeric_limits<float>::max();
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    const float d2 = q.SquaredDistanceTo(mesh.position(v));
    if (d2 < best) {
      best = d2;
      closest = v;
    }
  }
  const WalkResult r = DirectedWalk(mesh, q, closest);
  EXPECT_FALSE(r.ok());
  // The walk explores only the distance-bounded shell facing the query
  // (everything within start-distance + margin), not the whole mesh.
  EXPECT_LT(r.vertices_visited, mesh.num_vertices() / 3);
}

TEST(DirectedWalkTest, CloserStartWalksLess) {
  const TetraMesh mesh = MakeBox(16);
  const AABB q(Vec3(0.47f, 0.47f, 0.47f), Vec3(0.53f, 0.53f, 0.53f));
  // Far corner (vertex 0 is at the domain corner).
  const WalkResult far = DirectedWalk(mesh, q, 0);
  ASSERT_TRUE(far.ok());
  // A vertex near the center: find one within 0.2 of center.
  VertexId near_v = kInvalidVertex;
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    if (Distance(mesh.position(v), Vec3(0.42f, 0.42f, 0.42f)) < 0.05f) {
      near_v = v;
      break;
    }
  }
  ASSERT_NE(near_v, kInvalidVertex);
  const WalkResult near = DirectedWalk(mesh, q, near_v);
  ASSERT_TRUE(near.ok());
  EXPECT_LT(near.vertices_visited, far.vertices_visited);
}

// ---------- CostModel ----------

TEST(CostModelTest, EquationsAreConsistent) {
  const CostConstants k{.cs_seconds = 6.6e-9, .cr_seconds = 2.7e-8};
  const CostModel model(/*surface_to_volume=*/0.03, /*mesh_degree=*/14.5, k);
  const size_t v = 1'000'000;

  // Eq. 3 decomposes into Eq. 1 + Eq. 2.
  const double probe = k.cs_seconds * 0.03 * v;
  const double crawl = k.cr_seconds * 14.5 * 0.001 * v;
  EXPECT_NEAR(model.OctopusSeconds(v, 0.001), probe + crawl, 1e-12);

  // Eq. 5 equals Eq. 4 / Eq. 3.
  EXPECT_NEAR(model.Speedup(0.001),
              model.LinearScanSeconds(v) / model.OctopusSeconds(v, 0.001),
              1e-9);

  // Eq. 6: at the break-even selectivity the speedup is exactly 1.
  const double be = model.BreakEvenSelectivity();
  EXPECT_NEAR(model.Speedup(be), 1.0, 1e-9);
  EXPECT_GT(model.Speedup(be * 0.5), 1.0);
  EXPECT_LT(model.Speedup(be * 2.0), 1.0);
}

TEST(CostModelTest, PaperScaleSanity) {
  // Paper constants: CS = 6.6e-9, CR = 2.7e-8, largest dataset S = 0.03,
  // M = 14.51.
  const CostConstants k{.cs_seconds = 6.6e-9, .cr_seconds = 2.7e-8};
  const CostModel model(0.03, 14.51, k);
  // Break-even selectivity (Eq. 6) reproduces the paper's 1.61% exactly.
  EXPECT_NEAR(model.BreakEvenSelectivity(), 0.0161, 0.0005);
  // Eq. 5 at selectivity 0.01% evaluates to ~27.8 with these inputs. The
  // paper quotes 11.1 for this datapoint; the printed equation and the
  // printed constants are not mutually consistent there (S would need to
  // be ~0.084). We implement the equation as printed; see EXPERIMENTS.md.
  EXPECT_NEAR(model.Speedup(0.0001), 27.8, 0.5);
  // Speedup must decrease with selectivity (Fig. 7(h) trend).
  EXPECT_GT(model.Speedup(0.0001), model.Speedup(0.001));
  EXPECT_GT(model.Speedup(0.001), model.Speedup(0.002));
}

TEST(CostModelTest, CalibrationProducesPlausibleConstants) {
  const TetraMesh mesh = MakeBox(12);
  const CostConstants k = CalibrateCostConstants(mesh, 2);
  EXPECT_GT(k.cs_seconds, 0.0);
  EXPECT_GT(k.cp_seconds, 0.0);
  EXPECT_GT(k.cr_seconds, 0.0);
  // Random adjacency access is slower than a sequential scan.
  EXPECT_GT(k.cr_seconds, k.cs_seconds * 0.5);
  EXPECT_LT(k.cr_seconds, k.cs_seconds * 200.0);
  // The probe gather costs at least as much per vertex as a sequential
  // scan, but not absurdly more.
  EXPECT_GT(k.cp_seconds, k.cs_seconds * 0.5);
  EXPECT_LT(k.cp_seconds, k.cs_seconds * 50.0);
}

TEST(CostModelTest, PaperFormIsCpEqualsCs) {
  // Omitting CP must reduce the refined model to the paper's equations.
  const CostConstants paper{.cs_seconds = 6.6e-9, .cr_seconds = 2.7e-8};
  const CostModel model(0.05, 14.0, paper);
  EXPECT_DOUBLE_EQ(model.constants().cp_seconds, 6.6e-9);
  CostConstants refined = paper;
  refined.cp_seconds = 2.0 * paper.cs_seconds;
  const CostModel refined_model(0.05, 14.0, refined);
  EXPECT_LT(refined_model.Speedup(0.001), model.Speedup(0.001));
  EXPECT_LT(refined_model.BreakEvenSelectivity(),
            model.BreakEvenSelectivity());
}

TEST(CostModelTest, FromMeshPullsDatasetParameters) {
  const TetraMesh mesh = MakeBox(6);
  const MeshStats stats = ComputeMeshStats(mesh);
  const CostConstants k{.cs_seconds = 1e-8, .cr_seconds = 4e-8};
  const CostModel model = CostModel::FromMesh(mesh, k);
  EXPECT_DOUBLE_EQ(model.surface_to_volume(), stats.surface_to_volume);
  EXPECT_DOUBLE_EQ(model.mesh_degree(), stats.mesh_degree);
}

TEST(CostModelTest, SelectivityEstimateFeedsModel) {
  const TetraMesh mesh = MakeBox(10);
  Histogram3D h(16);
  h.Build(mesh.positions());
  const AABB q(Vec3(0.25f, 0.25f, 0.25f), Vec3(0.75f, 0.75f, 0.75f));
  const double est = EstimateQuerySelectivity(h, q);
  const double exact =
      static_cast<double>(BruteForceRangeQuery(mesh, q).size()) /
      static_cast<double>(mesh.num_vertices());
  EXPECT_NEAR(est, exact, 0.05);
}

// ---------- Hilbert layout ----------

TEST(HilbertLayoutTest, PermutationIsBijective) {
  const TetraMesh mesh = MakeBox(6);
  const VertexPermutation perm = ComputeHilbertOrder(mesh);
  ASSERT_EQ(perm.size(), mesh.num_vertices());
  std::vector<bool> seen(perm.size(), false);
  for (VertexId old_id : perm.new_to_old) {
    ASSERT_LT(old_id, perm.size());
    ASSERT_FALSE(seen[old_id]);
    seen[old_id] = true;
  }
  for (size_t v = 0; v < perm.size(); ++v) {
    EXPECT_EQ(perm.old_to_new[perm.new_to_old[v]], v);
  }
}

TEST(HilbertLayoutTest, PermutedMeshIsIsomorphic) {
  const TetraMesh mesh = MakeBox(5);
  const VertexPermutation perm = ComputeHilbertOrder(mesh);
  const TetraMesh permuted = ApplyPermutation(mesh, perm);
  EXPECT_EQ(permuted.num_vertices(), mesh.num_vertices());
  EXPECT_EQ(permuted.num_tetrahedra(), mesh.num_tetrahedra());
  EXPECT_EQ(permuted.num_edges(), mesh.num_edges());
  // Positions moved with their ids.
  for (VertexId new_id = 0; new_id < permuted.num_vertices(); ++new_id) {
    EXPECT_EQ(permuted.position(new_id),
              mesh.position(perm.new_to_old[new_id]));
  }
  // Adjacency is preserved under relabeling.
  for (VertexId old_id = 0; old_id < mesh.num_vertices(); ++old_id) {
    std::vector<VertexId> expected;
    for (VertexId n : mesh.neighbors(old_id)) {
      expected.push_back(perm.old_to_new[n]);
    }
    std::sort(expected.begin(), expected.end());
    const auto got = permuted.neighbors(perm.old_to_new[old_id]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()));
  }
}

TEST(HilbertLayoutTest, QueryResultsMapThroughPermutation) {
  const TetraMesh mesh = MakeBox(7);
  const VertexPermutation perm = ComputeHilbertOrder(mesh);
  const TetraMesh permuted = ApplyPermutation(mesh, perm);
  const AABB q(Vec3(0.2f, 0.1f, 0.3f), Vec3(0.8f, 0.5f, 0.7f));
  const auto original = BruteForceRangeQuery(mesh, q);
  auto mapped = BruteForceRangeQuery(permuted, q);
  std::vector<VertexId> expected;
  for (VertexId v : original) expected.push_back(perm.old_to_new[v]);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(mapped, expected);
}

TEST(HilbertLayoutTest, ImprovesNeighborLocality) {
  // The point of the optimization: after Hilbert ordering, most graph
  // neighbors live at nearby ids (=> nearby memory in the SoA layout), so
  // the crawl's "random" accesses hit cache. The right metric is the
  // fraction of neighbor pairs within a small id window — the *mean* gap
  // is dominated by the curve's rare long jumps and can even grow.
  const TetraMesh mesh = MakeNeuroMesh(0, 0.03).MoveValue();
  auto near_fraction = [](const TetraMesh& m, double window) {
    size_t near = 0;
    size_t count = 0;
    for (VertexId v = 0; v < m.num_vertices(); ++v) {
      for (VertexId n : m.neighbors(v)) {
        if (std::abs(static_cast<double>(n) - static_cast<double>(v)) <=
            window) {
          ++near;
        }
        ++count;
      }
    }
    return static_cast<double>(near) / static_cast<double>(count);
  };
  const TetraMesh permuted =
      ApplyPermutation(mesh, ComputeHilbertOrder(mesh));
  EXPECT_GT(near_fraction(permuted, 8), near_fraction(mesh, 8));
  EXPECT_GT(near_fraction(permuted, 32), near_fraction(mesh, 32));
}

}  // namespace
}  // namespace octopus
