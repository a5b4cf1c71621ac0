// Copyright 2026 The OCTOPUS Reproduction Authors
// Property tests for the OCTOPUS executor: the central invariant is
// exactness — OCTOPUS returns precisely the linear-scan result — across
// mesh types, deformation steps and query shapes. Also covers the
// surface-approximation accuracy trade-off, OCTOPUS-CON, the fused
// surface probe's parity with the sequential per-query scan it replaced,
// the directed walk's parity with the allocating walk it replaced, the
// crawl's parity with the two-vector crawl it replaced, and the batch
// order's independence of the order boxes arrive in.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_set>

#include "engine/thread_pool.h"
#include "index/linear_scan.h"
#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_io.h"
#include "octopus/cost_model.h"
#include "octopus/octopus_con.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "octopus/surface_probe.h"
#include "sim/deformer.h"
#include "sim/plasticity_deformer.h"
#include "sim/random_deformer.h"
#include "sim/restructurer.h"
#include "sim/wave_deformer.h"
#include "sim/workload.h"
#include "storage/delta_overlay.h"
#include "storage/paged_mesh.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// ---------- Exactness properties ----------

TEST(OctopusTest, ExactOnStaticConvexMesh) {
  const TetraMesh mesh = MakeBox(10);
  Octopus octopus;
  octopus.Build(mesh);
  QueryGenerator gen(mesh);
  Rng rng(1);
  for (int i = 0; i < 40; ++i) {
    const AABB q = gen.MakeQuery(&rng, 0.002 + 0.02 * rng.NextDouble());
    std::vector<VertexId> got;
    octopus.RangeQuery(mesh, q, &got);
    ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, q)) << "query " << i;
  }
}

// NOTE on query sizes in the exactness tests: the paper's reachability
// argument is geometric; its discrete edge-path version can miss a vertex
// when the query box is only 1-2 edge lengths wide (a vertex can sit
// inside the box with every neighbor outside). Paper-scale queries return
// thousands of results and are dozens of edge lengths wide, so the tests
// use selectivities that keep queries comfortably above that regime
// (>= ~100 results per query). See DESIGN.md "Correctness invariants".

TEST(OctopusTest, ExactOnNonConvexNeuroMeshUnderDeformation) {
  // The headline property: exact results on a deforming, non-convex,
  // disconnected (two-cell) mesh with NO maintenance between steps.
  TetraMesh mesh = MakeNeuroMesh(0, 0.4).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  PlasticityDeformer deformer(0.3f * EstimateMeanEdgeLength(mesh));
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(2);
  for (int step = 1; step <= 8; ++step) {
    deformer.ApplyStep(step, &mesh);
    octopus.BeforeQueries(mesh);  // no-op by design
    for (int q = 0; q < 6; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.02 + 0.03 * rng.NextDouble());
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
}

TEST(OctopusTest, ExactUnderUnpredictableRandomDeformation) {
  TetraMesh mesh = MakeBox(16);
  Octopus octopus;
  octopus.Build(mesh);
  RandomDeformer deformer(0.015f);  // ~1/4 of the grid spacing
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(3);
  for (int step = 1; step <= 10; ++step) {
    deformer.ApplyStep(step, &mesh);
    for (int q = 0; q < 4; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.05);
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step;
    }
  }
}

TEST(OctopusTest, QuerySplitAcrossDisjointComponents) {
  // Paper Fig. 3 scenario: a query that spans two disjoint sub-meshes must
  // return results from both (each contributes its own surface starts).
  auto r = GenerateMaskedGrid(
      6, 6, 7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      [](int, int, int k) { return k <= 1 || k >= 5; });  // two slabs
  ASSERT_TRUE(r.ok());
  const TetraMesh& mesh = r.Value();
  Octopus octopus;
  octopus.Build(mesh);
  // A query column crossing the empty gap between the slabs.
  const AABB q(Vec3(0.3f, 0.3f, 0.0f), Vec3(0.7f, 0.7f, 1.0f));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  const auto expected = BruteForceRangeQuery(mesh, q);
  ASSERT_EQ(Sorted(got), expected);
  // Sanity: both slabs contributed (z spans both sides of the gap).
  bool low = false;
  bool high = false;
  for (VertexId v : got) {
    if (mesh.position(v).z < 0.4f) low = true;
    if (mesh.position(v).z > 0.6f) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(OctopusTest, EnclosedQueryUsesDirectedWalk) {
  // A query strictly inside the mesh volume contains no surface vertex:
  // phase 2 must kick in and the result must still be exact.
  const TetraMesh mesh = MakeBox(12);
  Octopus octopus;
  octopus.Build(mesh);
  const AABB q(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  EXPECT_EQ(Sorted(got), BruteForceRangeQuery(mesh, q));
  EXPECT_EQ(octopus.stats().walk_invocations, 1u);
  EXPECT_GT(octopus.stats().walk_vertices, 0u);
}

TEST(OctopusTest, EmptyQueryOutsideMesh) {
  const TetraMesh mesh = MakeBox(6);
  Octopus octopus;
  octopus.Build(mesh);
  const AABB q(Vec3(3, 3, 3), Vec3(4, 4, 4));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  EXPECT_TRUE(got.empty());
}

TEST(OctopusTest, WholeDomainQueryReturnsEverything) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.02).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  AABB everything = mesh.ComputeBounds();
  everything = everything.Inflated(0.1f);
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, everything, &got);
  EXPECT_EQ(got.size(), mesh.num_vertices());
}

TEST(OctopusTest, ExactAfterRestructuringWithIncrementalMaintenance) {
  TetraMesh mesh = MakeBox(10);
  Octopus octopus(OctopusOptions{.support_restructuring = true});
  octopus.Build(mesh);
  Rng rng(7);
  QueryGenerator gen(mesh);
  for (int round = 0; round < 4; ++round) {
    // Interior refinement.
    auto split = SplitTetAtCentroid(
        &mesh, static_cast<TetId>(rng.NextBelow(mesh.num_tetrahedra())));
    ASSERT_TRUE(split.ok());
    octopus.OnRestructure(mesh, split.Value());
    // Surface growth.
    const SurfaceInfo info = ExtractSurface(mesh);
    const FaceKey face =
        info.surface_faces[rng.NextBelow(info.surface_faces.size())];
    const Vec3 centroid = (mesh.position(face[0]) + mesh.position(face[1]) +
                           mesh.position(face[2])) /
                          3.0f;
    const Vec3 outward = centroid - Vec3(0.5f, 0.5f, 0.5f);
    auto grow = AddTetOnSurfaceFace(&mesh, face, centroid + outward * 0.3f);
    ASSERT_TRUE(grow.ok());
    octopus.OnRestructure(mesh, grow.Value());

    for (int q = 0; q < 5; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.08 + 0.08 * rng.NextDouble());
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "round " << round << " query " << q;
    }
  }
}

// ---------- Phase statistics & footprint ----------

TEST(OctopusTest, StatsAccumulateAcrossQueries) {
  const TetraMesh mesh = MakeBox(8);
  Octopus octopus(OctopusOptions{.route_to_scan = false});
  octopus.Build(mesh);
  QueryGenerator gen(mesh);
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    std::vector<VertexId> got;
    octopus.RangeQuery(mesh, gen.MakeQuery(&rng, 0.01), &got);
  }
  const PhaseStats& s = octopus.stats();
  EXPECT_EQ(s.queries, 10u);
  EXPECT_EQ(s.probed_vertices,
            10u * octopus.surface_index().num_surface_vertices());
  EXPECT_GT(s.probe_nanos, 0);
  // Ten batches of one: one gather each.
  EXPECT_EQ(s.probe_position_reads,
            10u * octopus.surface_index().num_surface_vertices());
  EXPECT_GT(s.crawl_edges, 0u);
  EXPECT_GT(s.result_vertices, 0u);
  octopus.ResetStats();
  EXPECT_EQ(octopus.stats().queries, 0u);
}

TEST(OctopusTest, FootprintIncludesSurfaceIndexAndScratch) {
  const TetraMesh mesh = MakeBox(8);
  Octopus octopus;
  octopus.Build(mesh);
  EXPECT_GE(octopus.FootprintBytes(),
            octopus.surface_index().FootprintBytes());
  // Far below the mesh itself (the whole point of Fig. 6(b)).
  EXPECT_LT(octopus.FootprintBytes(), mesh.MemoryBytes());

  // After a walking query, a context's scratch includes the walk heap
  // it keeps for the next walk.
  engine::ExecutionContext context;
  context.EnsureSize(mesh.num_vertices());
  const AABB enclosed(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  std::vector<VertexId> out;
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  const uint32_t slot = 0;
  ExecuteOctopusShard(accessor, octopus.surface_index(), OctopusOptions{},
                      ScanRoute{}, std::span<const AABB>(&enclosed, 1),
                      std::span<const uint32_t>(&slot, 1), &context, &out);
  ASSERT_EQ(context.stats.walk_invocations, 1u);
  const size_t heap_bytes = context.walk_heap.capacity() * sizeof(WalkFrontier);
  EXPECT_GT(heap_bytes, 0u);
  EXPECT_EQ(context.ScratchBytes(),
            context.crawler.ScratchBytes() + heap_bytes +
                context.probe.ScratchBytes() +
                context.crawl_side.ScratchBytes() +
                context.scan_side.ScratchBytes() +
                context.scan.ScratchBytes());
}

// ---------- Surface approximation (Sec. IV-H2) ----------

class ApproximationTest : public ::testing::TestWithParam<double> {};

TEST_P(ApproximationTest, AccuracyDegradesGracefully) {
  TetraMesh mesh = MakeNeuroMesh(1, 0.05).MoveValue();
  const double fraction = GetParam();
  Octopus exact(OctopusOptions{.route_to_scan = false});
  exact.Build(mesh);
  Octopus approx(OctopusOptions{.surface_sample_fraction = fraction,
                                .route_to_scan = false});
  approx.Build(mesh);

  QueryGenerator gen(mesh);
  Rng rng(11);
  size_t exact_total = 0;
  size_t approx_total = 0;
  for (int i = 0; i < 15; ++i) {
    const AABB q = gen.MakeQuery(&rng, 0.01);
    std::vector<VertexId> e;
    std::vector<VertexId> a;
    exact.RangeQuery(mesh, q, &e);
    approx.RangeQuery(mesh, q, &a);
    exact_total += e.size();
    approx_total += a.size();
    // Approximation can only miss results, never invent them.
    std::vector<VertexId> se = Sorted(e);
    for (VertexId v : a) {
      ASSERT_TRUE(std::binary_search(se.begin(), se.end(), v));
    }
  }
  ASSERT_GT(exact_total, 0u);
  const double accuracy = static_cast<double>(approx_total) /
                          static_cast<double>(exact_total);
  if (fraction >= 0.05) {
    // Paper Fig. 12(a): accuracy stays >90% even at strong approximation.
    EXPECT_GT(accuracy, 0.9) << "fraction " << fraction;
  } else {
    EXPECT_GT(accuracy, 0.2) << "fraction " << fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, ApproximationTest,
                         ::testing::Values(0.01, 0.05, 0.2, 1.0));

TEST(ApproximationTest, ProbesFewerVertices) {
  const TetraMesh mesh = MakeBox(10);
  Octopus approx(OctopusOptions{.surface_sample_fraction = 0.1,
                                .route_to_scan = false});
  approx.Build(mesh);
  std::vector<VertexId> got;
  approx.RangeQuery(mesh, AABB(Vec3(0.2f, 0.2f, 0.2f), Vec3(0.5f, 0.5f, 0.5f)),
                    &got);
  const size_t surface = approx.surface_index().num_surface_vertices();
  EXPECT_LE(approx.stats().probed_vertices, surface / 9);
}

// ---------- Fused surface probe vs the per-query scan ----------

/// Outcome of one box's sequential surface probe.
struct ReferenceProbe {
  std::vector<VertexId> starts;
  VertexId closest = kInvalidVertex;
  size_t probed = 0;
};

/// The reference oracle: the per-query probe loop the fused probe
/// replaced, verbatim but for its prefetch hint (which changes no value).
template <storage::MeshAccessor Accessor>
ReferenceProbe ReferenceSurfaceProbe(Accessor& mesh,
                                     const SurfaceIndex& surface_index,
                                     const OctopusOptions& options,
                                     const AABB& box) {
  ReferenceProbe reference;
  std::vector<VertexId>* start_scratch = &reference.starts;
  const std::span<const VertexId> surface = surface_index.probe_order();
  const size_t stride =
      options.surface_sample_fraction >= 1.0
          ? 1
          : std::max<size_t>(
                1, static_cast<size_t>(std::llround(
                       1.0 / options.surface_sample_fraction)));
  VertexId closest = kInvalidVertex;
  float closest_d2 = std::numeric_limits<float>::max();
  size_t probed = 0;
  for (size_t i = 0; i < surface.size(); i += stride) {
    const VertexId v = surface[i];
    ++probed;
    const float d2 = box.SquaredDistanceTo(mesh.ProbePosition(i, v));
    if (d2 == 0.0f) {
      start_scratch->push_back(v);
    } else if (start_scratch->empty() && d2 < closest_d2) {
      closest_d2 = d2;
      closest = v;
    }
  }
  reference.closest = closest;
  reference.probed = probed;
  return reference;
}

/// The reference oracle for the directed walk: the walk as it was when
/// every call built its own hash set and priority queue, verbatim but
/// for its frontier type's name.
struct ReferenceFrontier {
  float d2;
  VertexId vertex;
  bool operator>(const ReferenceFrontier& o) const { return d2 > o.d2; }
};

template <storage::MeshAccessor Accessor>
WalkResult ReferenceDirectedWalk(Accessor& mesh, const AABB& box,
                                 VertexId start) {
  WalkResult result;
  if (start == kInvalidVertex || mesh.num_vertices() == 0) return result;
  const float start_d2 = box.SquaredDistanceTo(mesh.position(start));
  if (start_d2 == 0.0f) {
    result.found = start;
    return result;
  }
  const float margin = 3.0f * internal::LocalMeanEdgeLength(mesh, start);
  const float limit = std::sqrt(start_d2) + margin;
  const float limit_d2 = limit * limit;

  std::priority_queue<ReferenceFrontier, std::vector<ReferenceFrontier>,
                      std::greater<>>
      heap;
  std::unordered_set<VertexId> visited;
  heap.push({start_d2, start});
  visited.insert(start);

  while (!heap.empty()) {
    const ReferenceFrontier current = heap.top();
    heap.pop();
    if (current.d2 == 0.0f) {
      result.found = current.vertex;
      return result;
    }
    if (current.d2 > limit_d2) {
      return result;
    }
    ++result.vertices_visited;
    for (VertexId n : mesh.neighbors(current.vertex)) {
      if (visited.insert(n).second) {
        heap.push({box.SquaredDistanceTo(mesh.position(n)), n});
      }
    }
  }
  return result;
}

/// Algorithm 1 for one query around the reference probe, accumulating
/// the logical counters the executor keeps.
template <typename CrawlerT>
void ReferenceQuery(const TetraMesh& mesh, const SurfaceIndex& surface_index,
                    const OctopusOptions& options, const AABB& box,
                    CrawlerT* crawler, PhaseStats* stats,
                    std::vector<VertexId>* out) {
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  ++stats->queries;
  ReferenceProbe probe =
      ReferenceSurfaceProbe(accessor, surface_index, options, box);
  stats->probed_vertices += probe.probed;
  if (probe.starts.empty()) {
    ++stats->walk_invocations;
    const WalkResult walk =
        ReferenceDirectedWalk(accessor, box, probe.closest);
    stats->walk_vertices += walk.vertices_visited;
    if (!walk.ok()) return;
    probe.starts.push_back(walk.found);
  }
  const CrawlStats crawl = crawler->Crawl(accessor, box, probe.starts, out);
  stats->crawl_edges += crawl.edges_traversed;
  stats->result_vertices += crawl.vertices_inside;
}

/// `box` with each face moved onto the nearest vertex coordinate of its
/// axis, so vertices lie exactly on its faces.
AABB SnapToVertexCoordinates(const TetraMesh& mesh, AABB box) {
  float* faces[6] = {&box.min.x, &box.min.y, &box.min.z,
                     &box.max.x, &box.max.y, &box.max.z};
  for (int f = 0; f < 6; ++f) {
    float best = 0.0f;
    float best_gap = std::numeric_limits<float>::max();
    for (const Vec3& p : mesh.positions()) {
      const float c = f % 3 == 0 ? p.x : f % 3 == 1 ? p.y : p.z;
      if (std::abs(c - *faces[f]) < best_gap) {
        best_gap = std::abs(c - *faces[f]);
        best = c;
      }
    }
    *faces[f] = best;
  }
  return box;
}

/// `count` boxes: every 4th slot holds an edge case (a dry box outside
/// the +x side whose closest surface vertices tie, zero-extent boxes at a
/// surface and at an interior vertex, faces on vertex coordinates, a box
/// far outside the mesh), the rest are monitoring-sized random boxes.
std::vector<AABB> ParityBoxes(const TetraMesh& mesh,
                              const SurfaceIndex& surface_index,
                              size_t count, uint64_t seed) {
  const AABB bounds = mesh.ComputeBounds();
  const std::span<const VertexId> surface = surface_index.probe_order();
  VertexId interior = 0;
  while (surface_index.Contains(interior)) ++interior;
  QueryGenerator gen(mesh);
  Rng rng(seed);
  const Vec3 far = bounds.max + Vec3(5, 5, 5);
  const std::vector<AABB> edge_cases = {
      AABB(Vec3(bounds.max.x + 0.5f, bounds.min.y - 0.1f,
                bounds.min.z - 0.1f),
           Vec3(bounds.max.x + 1.0f, bounds.max.y + 0.1f,
                bounds.max.z + 0.1f)),
      AABB(mesh.position(surface[surface.size() / 3]),
           mesh.position(surface[surface.size() / 3])),
      SnapToVertexCoordinates(mesh, gen.MakeQuery(&rng, 0.01)),
      AABB(mesh.position(interior), mesh.position(interior)),
      AABB(far, far + Vec3(1, 1, 1)),
      SnapToVertexCoordinates(mesh, gen.MakeQuery(&rng, 0.002)),
  };
  std::vector<AABB> boxes;
  for (size_t i = 0; i < count; ++i) {
    if (i % 4 == 0 && i / 4 < edge_cases.size()) {
      boxes.push_back(edge_cases[i / 4]);
    } else {
      boxes.push_back(gen.MakeQuery(&rng, 0.001 + 0.01 * rng.NextDouble()));
    }
  }
  return boxes;
}

/// The fused probe over `accessor`'s positions, tile by tile, must give
/// every box the reference's starts (in order) and, when dry, its
/// closest vertex; `mesh` holds the same positions in memory.
template <storage::MeshAccessor Accessor>
void ExpectProbeMatchesReference(Accessor& accessor, const TetraMesh& mesh,
                                 const SurfaceIndex& surface_index,
                                 const OctopusOptions& options,
                                 std::span<const AABB> boxes) {
  SurfaceProbe probe;
  probe.Gather(accessor, surface_index.probe_order(),
               ProbeStride(options.surface_sample_fraction));
  storage::InMemoryMeshAccessor reference_accessor(mesh.Graph());
  for (size_t tile = 0; tile < boxes.size(); tile += kProbeTileBoxes) {
    const auto tile_boxes = boxes.subspan(
        tile, std::min(kProbeTileBoxes, boxes.size() - tile));
    probe.ProbeTile(tile_boxes);
    for (size_t b = 0; b < tile_boxes.size(); ++b) {
      const ReferenceProbe reference = ReferenceSurfaceProbe(
          reference_accessor, surface_index, options, tile_boxes[b]);
      ASSERT_EQ(probe.size(), reference.probed);
      ASSERT_EQ(*probe.starts(b), reference.starts) << "box " << tile + b;
      if (reference.starts.empty()) {
        ASSERT_EQ(probe.closest(b), reference.closest) << "box " << tile + b;
      }
    }
  }
}

/// Per-query results and every logical counter of an executed batch
/// equal the reference's over `mesh`, crawled by a `CrawlerT`.
template <typename CrawlerT = Crawler>
void ExpectBatchMatchesReference(const engine::QueryBatchResult& results,
                                 const PhaseStats& stats,
                                 const TetraMesh& mesh,
                                 const SurfaceIndex& surface_index,
                                 const OctopusOptions& options,
                                 std::span<const AABB> boxes) {
  CrawlerT crawler;
  crawler.EnsureSize(mesh.num_vertices());
  PhaseStats expected;
  ASSERT_EQ(results.size(), boxes.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    std::vector<VertexId> out;
    ReferenceQuery(mesh, surface_index, options, boxes[q], &crawler,
                   &expected, &out);
    ASSERT_EQ(results.per_query[q], out) << "query " << q;
  }
  EXPECT_EQ(stats.queries, expected.queries);
  EXPECT_EQ(stats.probed_vertices, expected.probed_vertices);
  EXPECT_EQ(stats.walk_invocations, expected.walk_invocations);
  EXPECT_EQ(stats.walk_vertices, expected.walk_vertices);
  EXPECT_EQ(stats.crawl_edges, expected.crawl_edges);
  EXPECT_EQ(stats.result_vertices, expected.result_vertices);
  EXPECT_EQ(stats.stale_steps, expected.stale_steps);
}

// Batch sizes crossing the tile edge (64) and spanning many tiles; the
// 20^3 grid's 2,402 surface vertices span three probe blocks.
constexpr size_t kParityBatchSizes[] = {1, 3, 7, 64, 65, 1024};
constexpr double kParityFractions[] = {1.0, 0.5, 0.1};

TEST(FusedProbeParityTest, InMemoryMatchesPerQueryScan) {
  const TetraMesh mesh = MakeBox(20);
  engine::ThreadPool pool(4);
  for (const double fraction : kParityFractions) {
    const OctopusOptions options{.surface_sample_fraction = fraction,
                                 .route_to_scan = false};
    Octopus octopus(options);
    octopus.Build(mesh);
    const SurfaceIndex& surface_index = octopus.surface_index();
    for (const size_t n : kParityBatchSizes) {
      SCOPED_TRACE("fraction " + std::to_string(fraction) + " batch " +
                   std::to_string(n));
      const std::vector<AABB> boxes = ParityBoxes(mesh, surface_index, n, n);
      storage::InMemoryMeshAccessor accessor(mesh.Graph());
      ExpectProbeMatchesReference(accessor, mesh, surface_index, options,
                                  boxes);
      for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                    &pool}) {
        SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
        octopus.ResetStats();
        engine::QueryBatchResult results;
        octopus.RangeQueryBatch(mesh, boxes, &results, p);
        ExpectBatchMatchesReference(results, octopus.stats(), mesh,
                                    surface_index, options, boxes);
      }
    }
  }
}

TEST(FusedProbeParityTest, PagedDeformedOverlayMatchesPerQueryScan) {
  TetraMesh mesh = MakeBox(20);
  const std::string path = ::testing::TempDir() + "/fused_probe.oct2";
  constexpr size_t kPageBytes = 1024;
  ASSERT_TRUE(SaveSnapshot(
                  mesh, path, storage::SnapshotOptions{.page_bytes =
                                                           kPageBytes})
                  .ok());
  // Deform, then pin the batch to an overlay holding the new positions;
  // `mesh` carries the same positions for the reference.
  const std::vector<Vec3> base = mesh.positions();
  RandomDeformer deformer(0.01f, 5);
  deformer.Bind(mesh);
  deformer.ApplyStep(1, &mesh);
  size_t rewritten = 0;
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), kPageBytes, nullptr, base, mesh.positions(),
      &rewritten);
  ASSERT_GT(rewritten, 0u);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());

  engine::ThreadPool pool(4);
  for (const double fraction : kParityFractions) {
    PagedOctopus::Options options;
    options.executor.surface_sample_fraction = fraction;
    options.executor.route_to_scan = false;
    auto paged = PagedOctopus::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    const SurfaceIndex& surface_index = paged.Value()->surface_index();
    auto store = storage::PagedMeshStore::Open(path, options.pool);
    ASSERT_TRUE(store.ok());
    storage::PageIOStats io;
    storage::PagedMeshAccessor accessor(store.Value().get(), &io);
    for (const size_t n : kParityBatchSizes) {
      SCOPED_TRACE("fraction " + std::to_string(fraction) + " batch " +
                   std::to_string(n));
      const std::vector<AABB> boxes = ParityBoxes(mesh, surface_index, n, n);
      accessor.BeginBatch(epoch.pages(), 1);
      ExpectProbeMatchesReference(accessor, mesh, surface_index,
                                  options.executor, boxes);
      accessor.EndBatch();
      for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                    &pool}) {
        SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
        paged.Value()->ResetStats();
        engine::QueryBatchResult results;
        paged.Value()->RangeQueryBatch(boxes, &results, p, epoch.pages());
        ExpectBatchMatchesReference(results, paged.Value()->stats(), mesh,
                                    surface_index, options.executor, boxes);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(FusedProbeParityTest, TiedFallbackPicksLowestProbeRank) {
  // The grid's whole +x face is equidistant from a box beyond it: the
  // fallback must be the face's first vertex in probe order.
  const TetraMesh mesh = MakeBox(20);
  Octopus octopus;
  octopus.Build(mesh);
  const SurfaceIndex& surface_index = octopus.surface_index();
  const AABB bounds = mesh.ComputeBounds();
  const AABB box(
      Vec3(bounds.max.x + 0.5f, bounds.min.y - 0.1f, bounds.min.z - 0.1f),
      Vec3(bounds.max.x + 1.0f, bounds.max.y + 0.1f, bounds.max.z + 0.1f));
  float best = std::numeric_limits<float>::max();
  VertexId first = kInvalidVertex;
  size_t ties = 0;
  for (const VertexId v : surface_index.probe_order()) {
    const float d2 = box.SquaredDistanceTo(mesh.position(v));
    if (d2 < best) {
      best = d2;
      first = v;
      ties = 1;
    } else if (d2 == best) {
      ++ties;
    }
  }
  ASSERT_GT(ties, kProbeBlockVertices / 4);  // ties span probe blocks
  // Place the tie box in the middle of a tile, behind boxes with starts.
  std::vector<AABB> boxes(5, bounds);
  boxes.push_back(box);
  SurfaceProbe probe;
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  probe.Gather(accessor, surface_index.probe_order(), 1);
  probe.ProbeTile(boxes);
  EXPECT_TRUE(probe.starts(5)->empty());
  EXPECT_EQ(probe.closest(5), first);
  storage::InMemoryMeshAccessor reference_accessor(mesh.Graph());
  EXPECT_EQ(ReferenceSurfaceProbe(reference_accessor, surface_index,
                                  OctopusOptions{}, box)
                .closest,
            first);
}

TEST(FusedProbeParityTest, PositionReadsArePerShardNotPerQuery) {
  const TetraMesh mesh = MakeBox(12);
  engine::ThreadPool pool(4);
  QueryGenerator gen(mesh);
  Rng rng(21);
  for (const double fraction : kParityFractions) {
    Octopus octopus(OctopusOptions{.surface_sample_fraction = fraction,
                                   .route_to_scan = false});
    octopus.Build(mesh);
    const size_t surface = octopus.surface_index().num_surface_vertices();
    const size_t stride = ProbeStride(fraction);
    const size_t per_gather = (surface + stride - 1) / stride;
    for (const size_t n : kParityBatchSizes) {
      const std::vector<AABB> boxes =
          gen.MakeQueries(&rng, static_cast<int>(n), 0.001, 0.01);
      for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                    &pool}) {
        const size_t shards = p == nullptr ? 1 : std::min<size_t>(4, n);
        octopus.ResetStats();
        engine::QueryBatchResult results;
        octopus.RangeQueryBatch(mesh, boxes, &results, p);
        EXPECT_EQ(octopus.stats().probe_position_reads, shards * per_gather)
            << "fraction " << fraction << " batch " << n;
        EXPECT_EQ(octopus.stats().probed_vertices, n * per_gather);
      }
    }
  }
}

// ---------- Directed walk parity (shared marks, reused heap) ----------

/// Neuro L0 after eight plasticity steps. The surface index depends on
/// topology only, so it is the stale index a server keeps; `base` holds
/// the undeformed positions a snapshot of the mesh is written from.
struct DeformedNeuro {
  TetraMesh mesh;
  std::vector<Vec3> base;
};

DeformedNeuro MakeDeformedNeuro() {
  DeformedNeuro neuro{MakeNeuroMesh(0, 0.4).MoveValue(), {}};
  neuro.base = neuro.mesh.positions();
  PlasticityDeformer deformer(0.3f * EstimateMeanEdgeLength(neuro.mesh));
  deformer.Bind(neuro.mesh);
  for (int step = 1; step <= 8; ++step) deformer.ApplyStep(step, &neuro.mesh);
  return neuro;
}

struct WalkCase {
  AABB box;
  VertexId start;
};

bool HoldsSurfaceVertex(const TetraMesh& mesh,
                        const SurfaceIndex& surface_index, const AABB& box) {
  for (const VertexId v : surface_index.probe_order()) {
    if (box.Contains(mesh.position(v))) return true;
  }
  return false;
}

VertexId ClosestSurfaceVertex(const TetraMesh& mesh,
                              const SurfaceIndex& surface_index,
                              const AABB& box) {
  VertexId closest = kInvalidVertex;
  float best = std::numeric_limits<float>::max();
  for (const VertexId v : surface_index.probe_order()) {
    const float d2 = box.SquaredDistanceTo(mesh.position(v));
    if (d2 < best) {
      best = d2;
      closest = v;
    }
  }
  return closest;
}

/// Walks on `mesh`: dry boxes inside it (no surface vertex, so the probe
/// finds nothing), walked from their closest surface vertex and from a
/// random vertex; boxes outside it (the failure path); and boxes that
/// already hold their start.
std::vector<WalkCase> WalkCases(const TetraMesh& mesh,
                                const SurfaceIndex& surface_index,
                                uint64_t seed) {
  const float edge = EstimateMeanEdgeLength(mesh);
  Rng rng(seed);
  auto random_vertex = [&] {
    return static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
  };
  std::vector<WalkCase> cases;
  for (int dry = 0, attempt = 0; dry < 12 && attempt < 1000; ++attempt) {
    const VertexId v = random_vertex();
    if (surface_index.Contains(v)) continue;
    const float h = edge * (0.5f + 2.0f * static_cast<float>(rng.NextDouble()));
    const AABB box =
        AABB::FromCenterHalfExtent(mesh.position(v), Vec3(h, h, h));
    if (HoldsSurfaceVertex(mesh, surface_index, box)) continue;
    cases.push_back({box, ClosestSurfaceVertex(mesh, surface_index, box)});
    cases.push_back({box, random_vertex()});
    ++dry;
  }
  const AABB bounds = mesh.ComputeBounds();
  const Vec3 extent = bounds.max - bounds.min;
  const Vec3 e = extent * 0.6f;
  for (const Vec3& shift : {Vec3(e.x, 0, 0), Vec3(-e.x, 0, 0),
                            Vec3(0, e.y, 0), Vec3(0, -e.y, 0),
                            Vec3(0, 0, e.z), Vec3(0, 0, -e.z)}) {
    const AABB box = AABB::FromCenterHalfExtent(bounds.Center() + shift,
                                                extent * 0.05f);
    cases.push_back({box, ClosestSurfaceVertex(mesh, surface_index, box)});
  }
  for (int i = 0; i < 4; ++i) {
    const VertexId v = random_vertex();
    cases.push_back({AABB::FromCenterHalfExtent(mesh.position(v),
                                                Vec3(edge, edge, edge)),
                     v});
  }
  return cases;
}

std::vector<AABB> BoxesOf(std::span<const WalkCase> cases) {
  std::vector<AABB> boxes;
  for (const WalkCase& c : cases) boxes.push_back(c.box);
  return boxes;
}

constexpr VisitedMode kVisitedModes[] = {VisitedMode::kEpochArray,
                                         VisitedMode::kHashSet};

TEST(WalkParityTest, InMemoryMatchesAllocatingWalk) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  SurfaceIndex surface_index;
  surface_index.Build(mesh);
  const std::vector<WalkCase> cases = WalkCases(mesh, surface_index, 41);
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  size_t found = 0;
  size_t failed = 0;
  for (const VisitedMode mode : kVisitedModes) {
    // One set of marks and one heap for every walk, as in a context.
    VisitedMarks marks(mode);
    marks.EnsureSize(mesh.num_vertices());
    std::vector<WalkFrontier> heap;
    for (size_t i = 0; i < cases.size(); ++i) {
      const WalkCase& c = cases[i];
      const WalkResult expected =
          ReferenceDirectedWalk(accessor, c.box, c.start);
      const WalkResult got =
          DirectedWalk(accessor, c.box, c.start, &marks, &heap);
      ASSERT_EQ(got.found, expected.found) << "case " << i;
      ASSERT_EQ(got.vertices_visited, expected.vertices_visited)
          << "case " << i;
      (expected.ok() ? found : failed) += 1;
    }
  }
  // The cases reach both outcomes, and the dry ones really walk.
  EXPECT_GT(found, 0u);
  EXPECT_GT(failed, 0u);

  // The executor walks from the probe's closest vertex; both marks modes
  // give the reference's results and counters at 1 and 4 threads.
  const std::vector<AABB> boxes = BoxesOf(cases);
  engine::ThreadPool pool(4);
  for (const VisitedMode mode : kVisitedModes) {
    const OctopusOptions options{.visited_mode = mode,
                                 .route_to_scan = false};
    Octopus octopus(options);
    octopus.Build(mesh);
    for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                  &pool}) {
      octopus.ResetStats();
      engine::QueryBatchResult results;
      octopus.RangeQueryBatch(mesh, boxes, &results, p);
      ExpectBatchMatchesReference(results, octopus.stats(), mesh,
                                  octopus.surface_index(), options, boxes);
      EXPECT_GT(octopus.stats().walk_vertices, 0u);
    }
  }
}

TEST(WalkParityTest, PagedDeformedOverlayMatchesAllocatingWalk) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  TetraMesh base_mesh = mesh;
  base_mesh.mutable_positions() = neuro.base;
  const std::string path = ::testing::TempDir() + "/walk_parity.oct2";
  constexpr size_t kPageBytes = 4096;
  ASSERT_TRUE(SaveSnapshot(base_mesh, path,
                           storage::SnapshotOptions{.page_bytes = kPageBytes})
                  .ok());
  size_t rewritten = 0;
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), kPageBytes, nullptr, neuro.base, mesh.positions(),
      &rewritten);
  ASSERT_GT(rewritten, 0u);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());

  engine::ThreadPool pool(4);
  for (const VisitedMode mode : kVisitedModes) {
    PagedOctopus::Options options;
    options.executor.visited_mode = mode;
    options.executor.route_to_scan = false;
    auto paged = PagedOctopus::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    const SurfaceIndex& surface_index = paged.Value()->surface_index();
    const std::vector<WalkCase> cases = WalkCases(mesh, surface_index, 43);

    // Walk by walk over two private pools: the walk reads the same
    // pages in the same order as the reference, so page counters agree.
    auto store = storage::PagedMeshStore::Open(path, options.pool);
    auto reference_store = storage::PagedMeshStore::Open(path, options.pool);
    ASSERT_TRUE(store.ok() && reference_store.ok());
    storage::PageIOStats io;
    storage::PageIOStats reference_io;
    storage::PagedMeshAccessor accessor(store.Value().get(), &io);
    storage::PagedMeshAccessor reference_accessor(
        reference_store.Value().get(), &reference_io);
    accessor.BeginBatch(epoch.pages(), 1);
    reference_accessor.BeginBatch(epoch.pages(), 1);
    VisitedMarks marks(mode);
    marks.EnsureSize(mesh.num_vertices());
    std::vector<WalkFrontier> heap;
    for (size_t i = 0; i < cases.size(); ++i) {
      const WalkCase& c = cases[i];
      const WalkResult expected =
          ReferenceDirectedWalk(reference_accessor, c.box, c.start);
      const WalkResult got =
          DirectedWalk(accessor, c.box, c.start, &marks, &heap);
      ASSERT_EQ(got.found, expected.found) << "case " << i;
      ASSERT_EQ(got.vertices_visited, expected.vertices_visited)
          << "case " << i;
    }
    accessor.EndBatch();
    reference_accessor.EndBatch();
    EXPECT_EQ(io.page_hits, reference_io.page_hits);
    EXPECT_EQ(io.page_misses, reference_io.page_misses);
    EXPECT_EQ(io.lease_hits, reference_io.lease_hits);
    EXPECT_EQ(io.pages_leased, reference_io.pages_leased);
    EXPECT_EQ(io.pages_distinct, reference_io.pages_distinct);

    const std::vector<AABB> boxes = BoxesOf(cases);
    for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                  &pool}) {
      paged.Value()->ResetStats();
      engine::QueryBatchResult results;
      paged.Value()->RangeQueryBatch(boxes, &results, p, epoch.pages());
      ExpectBatchMatchesReference(results, paged.Value()->stats(), mesh,
                                  surface_index, options.executor, boxes);
    }
  }
  std::remove(path.c_str());
}

TEST(WalkParityTest, SharedMarksSurviveEpochWrap) {
  // The walk and the crawl advance one epoch counter. A first pass
  // leaves low-epoch stamps behind; the second starts 0..5 traversals
  // before the wrap, so the reset lands in the first queries' walks and
  // crawls, with walking and crawling queries interleaved around it.
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  Octopus octopus;
  octopus.Build(mesh);
  const SurfaceIndex& surface_index = octopus.surface_index();
  const std::vector<WalkCase> cases = WalkCases(mesh, surface_index, 47);
  QueryGenerator gen(mesh);
  Rng rng(48);
  std::vector<AABB> boxes;
  for (const WalkCase& c : cases) {
    boxes.push_back(c.box);
    boxes.push_back(gen.MakeQuery(&rng, 0.002 + 0.01 * rng.NextDouble()));
  }
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  for (uint8_t before_wrap = 0; before_wrap < 6; ++before_wrap) {
    SCOPED_TRACE("epoch UINT8_MAX - " + std::to_string(before_wrap));
    engine::ExecutionContext context;
    context.EnsureSize(mesh.num_vertices());
    for (const bool wrap : {false, true}) {
      if (wrap) {
        context.crawler.marks().set_epoch_for_testing(
            std::numeric_limits<uint8_t>::max() - before_wrap);
      }
      context.stats.Reset();
      engine::QueryBatchResult results;
      results.Reset(boxes.size());
      // One query per call: each starts its walk and crawl from the
      // previous query's marks.
      for (size_t q = 0; q < boxes.size(); ++q) {
        const auto slot = static_cast<uint32_t>(q);
        ExecuteOctopusShard(accessor, surface_index, OctopusOptions{},
                            ScanRoute{}, std::span<const AABB>(&boxes[q], 1),
                            std::span<const uint32_t>(&slot, 1), &context,
                            results.per_query.data());
      }
      EXPECT_LE(context.crawler.marks().epoch(), 2 * boxes.size());
      EXPECT_GT(context.stats.walk_invocations, 0u);
      ExpectBatchMatchesReference(results, context.stats, mesh,
                                  surface_index, OctopusOptions{}, boxes);
    }
  }
}

// ---------- Crawl parity (the result vector is the FIFO) ----------

/// The crawl before its result vector became the BFS queue, kept
/// verbatim as the oracle: a second vector is the FIFO, every result is
/// pushed to both, and each visited test goes through
/// `VisitedMarks::Mark`.
class TwoVectorCrawler {
 public:
  TwoVectorCrawler() = default;
  explicit TwoVectorCrawler(VisitedMode mode) : marks_(mode) {}

  void EnsureSize(size_t num_vertices) { marks_.EnsureSize(num_vertices); }

  template <storage::MeshAccessor Accessor>
  CrawlStats Crawl(Accessor& mesh, const AABB& box,
                   std::span<const VertexId> starts,
                   std::vector<VertexId>* out) {
    CrawlStats stats;
    assert(marks_.Covers(mesh.num_vertices()) &&
           "EnsureSize not called for this mesh");
    marks_.Begin();

    queue_.clear();
    for (VertexId s : starts) {
      if (!marks_.Mark(s)) continue;
      ++stats.vertices_touched;
      if (!box.Contains(mesh.position(s))) continue;
      queue_.push_back(s);
      out->push_back(s);
      ++stats.vertices_inside;
    }

    // BFS; queue_ doubles as the FIFO with a moving head index.
    constexpr size_t kPrefetchAhead = 8;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId v = queue_[head];
      const std::span<const VertexId> ns = mesh.neighbors(v);
      for (size_t i = 0; i < ns.size(); ++i) {
        // Look ahead within the neighbor run: out of core, lease the next
        // position page before the frontier demands it (Hilbert layout
        // keeps runs page-local, so this is the paper's sequential-crawl
        // advantage made real). In memory the hint is a no-op.
        if (i + kPrefetchAhead < ns.size()) {
          mesh.PrefetchPosition(ns[i + kPrefetchAhead]);
        }
        const VertexId n = ns[i];
        ++stats.edges_traversed;
        if (!marks_.Mark(n)) continue;
        ++stats.vertices_touched;
        // Stop criteria: do not expand past vertices outside the query.
        if (!box.Contains(mesh.position(n))) continue;
        queue_.push_back(n);
        out->push_back(n);
        ++stats.vertices_inside;
      }
    }
    return stats;
  }

 private:
  VisitedMarks marks_;
  std::vector<VertexId> queue_;
};

/// One crawl: a box, its starts and what `out` holds on entry.
struct CrawlCase {
  AABB box;
  std::vector<VertexId> starts;
  std::vector<VertexId> prefix;
};

/// Crawls of 0.2-4% boxes whose starts mix in-box vertices, a duplicate
/// and out-of-box vertices; every third also enters with a non-empty
/// `out` (in-box vertices of the same box), and every seventh has only
/// out-of-box starts. Enough cases to wrap the 8-bit visited epoch.
std::vector<CrawlCase> CrawlCases(const TetraMesh& mesh, uint64_t seed) {
  QueryGenerator gen(mesh);
  Rng rng(seed);
  std::vector<CrawlCase> cases;
  while (cases.size() < 300) {
    CrawlCase c;
    c.box = gen.MakeQuery(&rng, 0.002 + 0.038 * rng.NextDouble());
    std::vector<VertexId> inside;
    std::vector<VertexId> outside;
    for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
      (c.box.Contains(mesh.position(v)) ? inside : outside).push_back(v);
    }
    if (inside.size() < 8 || outside.empty()) continue;
    auto pick = [&rng](const std::vector<VertexId>& from) {
      return from[rng.NextBelow(from.size())];
    };
    const size_t i = cases.size();
    c.starts.push_back(pick(outside));
    if (i % 7 != 0) {
      const VertexId start = pick(inside);
      c.starts.push_back(start);
      c.starts.push_back(pick(outside));
      c.starts.push_back(start);
      c.starts.push_back(pick(inside));
    }
    if (i % 3 == 0) c.prefix = {pick(inside), pick(inside), pick(inside)};
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Every case crawled by `Crawler` and by the two-vector oracle, each on
/// its own accessor: the same `out` (prefix kept, results in order) and
/// the same counters.
template <storage::MeshAccessor Accessor>
void ExpectCrawlsMatchTwoVectorCrawl(Accessor& accessor,
                                     Accessor& reference_accessor,
                                     size_t num_vertices, VisitedMode mode,
                                     std::span<const CrawlCase> cases) {
  Crawler crawler(mode);
  TwoVectorCrawler reference(mode);
  crawler.EnsureSize(num_vertices);
  reference.EnsureSize(num_vertices);
  size_t results = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const CrawlCase& c = cases[i];
    std::vector<VertexId> got = c.prefix;
    std::vector<VertexId> expected = c.prefix;
    const CrawlStats stats = crawler.Crawl(accessor, c.box, c.starts, &got);
    const CrawlStats expected_stats =
        reference.Crawl(reference_accessor, c.box, c.starts, &expected);
    ASSERT_EQ(got, expected) << "case " << i;
    ASSERT_EQ(stats.vertices_inside, expected_stats.vertices_inside)
        << "case " << i;
    ASSERT_EQ(stats.vertices_touched, expected_stats.vertices_touched)
        << "case " << i;
    ASSERT_EQ(stats.edges_traversed, expected_stats.edges_traversed)
        << "case " << i;
    results += expected_stats.vertices_inside;
  }
  EXPECT_GT(results, 0u);
}

TEST(CrawlParityTest, InMemoryFlatAndPageTableMatchTwoVectorCrawl) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  const std::vector<CrawlCase> cases = CrawlCases(mesh, 51);
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), storage::kDefaultPageBytes, nullptr, {},
      mesh.positions(), nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const auto per_page = static_cast<uint32_t>(overlay->positions_per_page());
  for (const VisitedMode mode : kVisitedModes) {
    SCOPED_TRACE(mode == VisitedMode::kEpochArray ? "epoch array"
                                                  : "hash set");
    {
      SCOPED_TRACE("flat");
      storage::InMemoryMeshAccessor accessor(mesh.Graph());
      storage::InMemoryMeshAccessor reference_accessor(mesh.Graph());
      ExpectCrawlsMatchTwoVectorCrawl(accessor, reference_accessor,
                                      mesh.num_vertices(), mode, cases);
    }
    {
      SCOPED_TRACE("page table");
      storage::InMemoryMeshAccessor accessor(mesh.Graph(), epoch.pages(),
                                             per_page);
      storage::InMemoryMeshAccessor reference_accessor(
          mesh.Graph(), epoch.pages(), per_page);
      ExpectCrawlsMatchTwoVectorCrawl(accessor, reference_accessor,
                                      mesh.num_vertices(), mode, cases);
    }
  }
}

TEST(CrawlParityTest, PagedDeformedOverlayMatchesTwoVectorCrawl) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  TetraMesh base_mesh = mesh;
  base_mesh.mutable_positions() = neuro.base;
  const std::string path = ::testing::TempDir() + "/crawl_parity.oct2";
  constexpr size_t kPageBytes = 1024;
  ASSERT_TRUE(SaveSnapshot(base_mesh, path,
                           storage::SnapshotOptions{.page_bytes = kPageBytes})
                  .ok());
  size_t rewritten = 0;
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), kPageBytes, nullptr, neuro.base, mesh.positions(),
      &rewritten);
  ASSERT_GT(rewritten, 0u);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const std::vector<CrawlCase> cases = CrawlCases(mesh, 53);

  // A roomy pool, and one of 12 pages whose accessors degrade to
  // transient pins and evict.
  for (const size_t pool_bytes : {size_t{4} << 20, 12 * kPageBytes}) {
    for (const VisitedMode mode : kVisitedModes) {
      SCOPED_TRACE("pool " + std::to_string(pool_bytes) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      // Two private pools: both crawls read the same pages in the same
      // order, so every page counter agrees.
      const storage::BufferManager::Options pool{.pool_bytes = pool_bytes};
      auto store = storage::PagedMeshStore::Open(path, pool);
      auto reference_store = storage::PagedMeshStore::Open(path, pool);
      ASSERT_TRUE(store.ok() && reference_store.ok());
      storage::PageIOStats io;
      storage::PageIOStats reference_io;
      storage::PagedMeshAccessor accessor(store.Value().get(), &io);
      storage::PagedMeshAccessor reference_accessor(
          reference_store.Value().get(), &reference_io);
      accessor.BeginBatch(epoch.pages(), 1);
      reference_accessor.BeginBatch(epoch.pages(), 1);
      ExpectCrawlsMatchTwoVectorCrawl(accessor, reference_accessor,
                                      mesh.num_vertices(), mode, cases);
      accessor.EndBatch();
      reference_accessor.EndBatch();
      EXPECT_GT(io.PageAccesses(), 0u);
      EXPECT_EQ(io.page_hits, reference_io.page_hits);
      EXPECT_EQ(io.page_misses, reference_io.page_misses);
      EXPECT_EQ(io.page_evictions, reference_io.page_evictions);
      EXPECT_EQ(io.lease_hits, reference_io.lease_hits);
      EXPECT_EQ(io.pages_leased, reference_io.pages_leased);
      EXPECT_EQ(io.pages_distinct, reference_io.pages_distinct);
      EXPECT_EQ(io.lease_revocations, reference_io.lease_revocations);
    }
  }

  // The paged executor's batches, at 1 and 4 threads.
  std::vector<AABB> boxes;
  for (const CrawlCase& c : cases) boxes.push_back(c.box);
  boxes.resize(96);
  engine::ThreadPool thread_pool(4);
  for (const VisitedMode mode : kVisitedModes) {
    PagedOctopus::Options options;
    options.executor.visited_mode = mode;
    options.executor.route_to_scan = false;
    auto paged = PagedOctopus::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    for (engine::ThreadPool* p :
         {static_cast<engine::ThreadPool*>(nullptr), &thread_pool}) {
      SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
      paged.Value()->ResetStats();
      engine::QueryBatchResult results;
      paged.Value()->RangeQueryBatch(boxes, &results, p, epoch.pages());
      ExpectBatchMatchesReference<TwoVectorCrawler>(
          results, paged.Value()->stats(), mesh,
          paged.Value()->surface_index(), options.executor, boxes);
    }
  }
  std::remove(path.c_str());
}

TEST(CrawlParityTest, BatchesMatchTwoVectorCrawlAtOneAndFourThreads) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  QueryGenerator gen(mesh);
  Rng rng(55);
  const std::vector<AABB> boxes = gen.MakeQueries(&rng, 96, 0.002, 0.04);
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), storage::kDefaultPageBytes, nullptr, {},
      mesh.positions(), nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const auto per_page = static_cast<uint32_t>(overlay->positions_per_page());
  const MeshGraphView graph = mesh.Graph();
  engine::ThreadPool pool(4);
  for (const VisitedMode mode : kVisitedModes) {
    const OctopusOptions options{.visited_mode = mode,
                                 .route_to_scan = false};
    Octopus octopus(options);
    octopus.Build(mesh);
    engine::ContextPool contexts(mode);
    contexts.set_num_vertices(mesh.num_vertices());
    for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                  &pool}) {
      SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
      octopus.ResetStats();
      engine::QueryBatchResult flat;
      octopus.RangeQueryBatch(mesh, boxes, &flat, p);
      ExpectBatchMatchesReference<TwoVectorCrawler>(
          flat, octopus.stats(), mesh, octopus.surface_index(), options,
          boxes);
      contexts.ResetStats();
      engine::QueryBatchResult paged;
      ExecuteOctopusBatch(
          [&](engine::ExecutionContext*) {
            return storage::InMemoryMeshAccessor(graph, epoch.pages(),
                                                 per_page);
          },
          octopus.surface_index(), options, octopus.route(), boxes, &paged,
          p, &contexts);
      ExpectBatchMatchesReference<TwoVectorCrawler>(
          paged, contexts.stats(), mesh, octopus.surface_index(), options,
          boxes);
    }
  }
}

// ---------- Batch order (Hilbert order of the boxes) ----------

/// The arrival order 0..n-1 and five random permutations of it.
std::vector<std::vector<size_t>> ArrivalOrders(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<std::vector<size_t>> orders = {order};
  Rng rng(seed);
  for (int i = 0; i < 5; ++i) {
    for (size_t j = n; j > 1; --j) {
      std::swap(order[j - 1], order[rng.NextBelow(j)]);
    }
    orders.push_back(order);
  }
  return orders;
}

/// Monitoring- to crawl-sized boxes over `mesh`, with a few repeated so
/// that equal keys tie-break.
std::vector<AABB> OrderBoxes(const TetraMesh& mesh, uint64_t seed) {
  QueryGenerator gen(mesh);
  Rng rng(seed);
  std::vector<AABB> boxes = gen.MakeQueries(&rng, 90, 0.002, 0.04);
  for (size_t i = 0; i < 6; ++i) boxes.push_back(boxes[i * 7]);
  return boxes;
}

void ExpectSameTraversal(const PhaseStats& got, const PhaseStats& want) {
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.probed_vertices, want.probed_vertices);
  EXPECT_EQ(got.probe_position_reads, want.probe_position_reads);
  EXPECT_EQ(got.walk_invocations, want.walk_invocations);
  EXPECT_EQ(got.walk_vertices, want.walk_vertices);
  EXPECT_EQ(got.crawl_edges, want.crawl_edges);
  EXPECT_EQ(got.result_vertices, want.result_vertices);
  EXPECT_EQ(got.scan_queries, want.scan_queries);
  EXPECT_EQ(got.scan_vertices_tested, want.scan_vertices_tested);
  EXPECT_EQ(got.scan_blocks_skipped, want.scan_blocks_skipped);
}

void ExpectSamePageIO(const storage::PageIOStats& got,
                      const storage::PageIOStats& want) {
  EXPECT_EQ(got.page_hits, want.page_hits);
  EXPECT_EQ(got.page_misses, want.page_misses);
  EXPECT_EQ(got.page_evictions, want.page_evictions);
  EXPECT_EQ(got.lease_hits, want.lease_hits);
  EXPECT_EQ(got.pages_leased, want.pages_leased);
  EXPECT_EQ(got.pages_distinct, want.pages_distinct);
  EXPECT_EQ(got.lease_revocations, want.lease_revocations);
}

/// Runs `boxes` in every arrival order through `run(arrived, &result,
/// &stats)`. Each box must get the ids (in order) it got in the first
/// run, in its own slot, and the traversal counters must not move; with
/// `page_counters`, neither may any page counter.
template <typename Run>
void ExpectArrivalOrderInvariant(std::span<const AABB> boxes, uint64_t seed,
                                 bool page_counters, const Run& run) {
  std::vector<std::vector<VertexId>> expected(boxes.size());
  PhaseStats expected_stats;
  size_t results = 0;
  const std::vector<std::vector<size_t>> orders =
      ArrivalOrders(boxes.size(), seed);
  for (size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE("arrival order " + std::to_string(o));
    std::vector<AABB> arrived;
    for (const size_t i : orders[o]) arrived.push_back(boxes[i]);
    engine::QueryBatchResult result;
    PhaseStats stats;
    run(std::span<const AABB>(arrived), &result, &stats);
    ASSERT_EQ(result.size(), boxes.size());
    for (size_t slot = 0; slot < arrived.size(); ++slot) {
      const size_t box = orders[o][slot];
      if (o == 0) {
        expected[box] = result.per_query[slot];
        results += expected[box].size();
      } else {
        ASSERT_EQ(result.per_query[slot], expected[box]) << "box " << box;
      }
    }
    if (o == 0) {
      expected_stats = stats;
      continue;
    }
    ExpectSameTraversal(stats, expected_stats);
    if (page_counters) ExpectSamePageIO(stats.page_io, expected_stats.page_io);
  }
  EXPECT_GT(results, 0u);
}

TEST(BatchOrderTest, OrderDependsOnlyOnTheSetOfBoxes) {
  const TetraMesh mesh = MakeBox(12);
  const std::vector<AABB> boxes = OrderBoxes(mesh, 61);
  auto same = [](const AABB& a, const AABB& b) {
    return std::memcmp(&a, &b, sizeof(AABB)) == 0;
  };
  engine::BatchOrder first;
  for (const std::vector<size_t>& order : ArrivalOrders(boxes.size(), 62)) {
    std::vector<AABB> arrived;
    for (const size_t i : order) arrived.push_back(boxes[i]);
    engine::BatchOrder sorted;
    OrderBatch(arrived, &sorted);
    ASSERT_EQ(sorted.boxes.size(), boxes.size());
    for (size_t i = 0; i < sorted.boxes.size(); ++i) {
      ASSERT_TRUE(same(sorted.boxes[i], arrived[sorted.slots[i]]));
      if (i > 0) {
        ASSERT_LE(sorted.keys[sorted.slots[i - 1]],
                  sorted.keys[sorted.slots[i]]);
      }
    }
    if (first.boxes.empty()) {
      first = sorted;
      continue;
    }
    for (size_t i = 0; i < boxes.size(); ++i) {
      ASSERT_TRUE(same(sorted.boxes[i], first.boxes[i])) << "position " << i;
    }
  }
  // Hilbert order keeps consecutive boxes near: the summed hop between
  // consecutive centres is well under that of the arrival order.
  auto hops = [](std::span<const AABB> order) {
    double sum = 0;
    for (size_t i = 1; i < order.size(); ++i) {
      const Vec3 d = order[i].Center() - order[i - 1].Center();
      sum += std::sqrt(static_cast<double>(d.x) * d.x +
                       static_cast<double>(d.y) * d.y +
                       static_cast<double>(d.z) * d.z);
    }
    return sum;
  };
  EXPECT_LT(hops(first.boxes), 0.5 * hops(boxes));
}

TEST(BatchOrderTest, ArrivalOrderMovesNoIdOrCounterInMemory) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  const std::vector<AABB> boxes = OrderBoxes(mesh, 63);
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), storage::kDefaultPageBytes, nullptr, {},
      mesh.positions(), nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const auto per_page = static_cast<uint32_t>(overlay->positions_per_page());
  const MeshGraphView graph = mesh.Graph();
  Octopus octopus;
  octopus.Build(mesh);
  engine::ContextPool contexts;
  contexts.set_num_vertices(mesh.num_vertices());
  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    {
      SCOPED_TRACE("flat");
      ExpectArrivalOrderInvariant(
          boxes, 64, false,
          [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
              PhaseStats* stats) {
            octopus.ResetStats();
            octopus.RangeQueryBatch(mesh, arrived, out, p);
            *stats = octopus.stats();
          });
    }
    {
      SCOPED_TRACE("page table");
      ExpectArrivalOrderInvariant(
          boxes, 65, false,
          [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
              PhaseStats* stats) {
            contexts.ResetStats();
            ExecuteOctopusBatch(
                [&](engine::ExecutionContext*) {
                  return storage::InMemoryMeshAccessor(graph, epoch.pages(),
                                                       per_page);
                },
                octopus.surface_index(), OctopusOptions{}, octopus.route(),
                arrived, out, p, &contexts);
            *stats = contexts.stats();
          });
    }
  }
}

TEST(BatchOrderTest, ArrivalOrderMovesNoIdOrCounterPaged) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  TetraMesh base_mesh = mesh;
  base_mesh.mutable_positions() = neuro.base;
  const std::string path = ::testing::TempDir() + "/batch_order.oct2";
  constexpr size_t kPageBytes = 1024;
  ASSERT_TRUE(SaveSnapshot(base_mesh, path,
                           storage::SnapshotOptions{.page_bytes = kPageBytes})
                  .ok());
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), kPageBytes, nullptr, neuro.base, mesh.positions(),
      nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const std::vector<AABB> boxes = OrderBoxes(mesh, 66);
  // A pool far smaller than the batch's working set: every run starts
  // cold on a fresh executor, and its hits, misses and evictions follow
  // the order its crawls read pages in.
  PagedOctopus::Options options;
  options.pool.pool_bytes = 24 * kPageBytes;
  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    uint64_t evictions = 0;
    ExpectArrivalOrderInvariant(
        boxes, 67, p == nullptr,
        [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
            PhaseStats* stats) {
          auto paged = PagedOctopus::Open(path, options);
          ASSERT_TRUE(paged.ok()) << paged.status().ToString();
          paged.Value()->RangeQueryBatch(arrived, out, p, epoch.pages());
          *stats = paged.Value()->stats();
          evictions += stats->page_io.page_evictions;
        });
    EXPECT_GT(evictions, 0u);
  }
  std::remove(path.c_str());
}

TEST(BatchOrderTest, NonFiniteBoxesAnswerAsBatchesOfOne) {
  // Neuro L0 routes its wide finite boxes to the scan and its narrow
  // ones to OCTOPUS, so the non-finite boxes sit in a routed batch.
  const TetraMesh mesh = MakeNeuroMesh(0, 0.4).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kHuge = std::numeric_limits<float>::max();
  QueryGenerator gen(mesh);
  Rng rng(68);
  // Centres that are NaN (inf - inf, a NaN coordinate), infinite, and
  // finite but so far apart that the bounds' extent overflows.
  const std::vector<AABB> non_finite = {
      AABB(Vec3(-kInf, -kInf, -kInf), Vec3(kInf, kInf, kInf)),
      AABB(Vec3(0.2f, kNaN, 0.2f), Vec3(0.4f, 0.4f, 0.4f)),
      AABB(Vec3(0.5f, 0.5f, 0.5f), Vec3(kInf, kInf, kInf)),
      AABB(Vec3(kNaN, kNaN, kNaN), Vec3(kNaN, kNaN, kNaN)),
      AABB(Vec3(-kHuge, -kHuge, -kHuge), Vec3(-kHuge, -kHuge, -kHuge)),
      AABB(Vec3(kHuge, kHuge, kHuge), Vec3(kHuge, kHuge, kHuge)),
      AABB(Vec3(0, 0, 0), Vec3(1, 1, kInf)),
  };
  // Each behind a finite box, alternately wide (scan-routed) and narrow,
  // and the first one twice.
  std::vector<AABB> boxes;
  for (size_t i = 0; i < non_finite.size(); ++i) {
    boxes.push_back(gen.MakeQuery(&rng, i % 2 == 0 ? 0.04 : 0.002));
    boxes.push_back(non_finite[i]);
  }
  boxes.push_back(gen.MakeQuery(&rng, 0.04));
  boxes.push_back(non_finite[0]);
  // Non-finite boxes never go to the scan; the wide finite ones do.
  size_t to_scan = 0;
  for (const AABB& box : non_finite) {
    EXPECT_FALSE(octopus.route().ToScan(box));
  }
  for (const AABB& box : boxes) to_scan += octopus.route().ToScan(box);
  ASSERT_GT(to_scan, 0u);
  ASSERT_LT(to_scan, boxes.size() - non_finite.size() - 1);
  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    engine::QueryBatchResult batch;
    octopus.ResetStats();
    octopus.RangeQueryBatch(mesh, boxes, &batch, p);
    EXPECT_EQ(octopus.stats().scan_queries, to_scan);
    ASSERT_EQ(batch.size(), boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      std::vector<VertexId> alone;
      octopus.RangeQuery(mesh, boxes[i], &alone);
      EXPECT_EQ(batch.per_query[i], alone) << "box " << i;
    }
    // The box spanning all of space holds every vertex.
    EXPECT_EQ(batch.per_query[1].size(), mesh.num_vertices());
  }
}

// ---------- Served planner (the Eq. 6 route in the batch core) ----------

/// `neuro.mesh` with its step-0 positions: what an index is built from.
TetraMesh BaseMesh(const DeformedNeuro& neuro) {
  TetraMesh base = neuro.mesh;
  base.mutable_positions() = neuro.base;
  return base;
}

TEST(ScanRouteTest, BreakEvenIsEq6WithTheCommittedConstants) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.4).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  const double want = CostModel(static_cast<double>(
                                    octopus.surface_index()
                                        .num_surface_vertices()) /
                                    static_cast<double>(mesh.num_vertices()),
                                mesh.AverageDegree(), kCounterUnitConstants)
                          .BreakEvenSelectivity();
  EXPECT_DOUBLE_EQ(octopus.route().break_even_selectivity(), want);
  EXPECT_GT(want, 0.0);
  EXPECT_LT(want, 0.1);
  // Unbuilt, or built under the paper's option: nothing routes.
  Octopus pure(OctopusOptions{.route_to_scan = false});
  pure.Build(mesh);
  EXPECT_FALSE(pure.route().active());
  EXPECT_FALSE(ScanRoute().ToScan(mesh.ComputeBounds()));
  EXPECT_TRUE(octopus.route().ToScan(mesh.ComputeBounds()));
}

TEST(ScanRouteTest, ScanRoutedBoxesAreExactInIdOrderTheRestMatchThePaper) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  const TetraMesh base_mesh = BaseMesh(neuro);
  Octopus routed;
  routed.Build(base_mesh);
  Octopus paper(OctopusOptions{.route_to_scan = false});
  paper.Build(base_mesh);
  const std::vector<AABB> boxes = OrderBoxes(mesh, 71);
  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    routed.ResetStats();
    paper.ResetStats();
    engine::QueryBatchResult got;
    engine::QueryBatchResult want;
    routed.RangeQueryBatch(mesh, boxes, &got, p);
    paper.RangeQueryBatch(mesh, boxes, &want, p);
    size_t scanned = 0;
    size_t scanned_results = 0;
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (routed.route().ToScan(boxes[i])) {
        ++scanned;
        scanned_results += got.per_query[i].size();
        // Brute force lists the in-box ids ascending: the scan's order.
        EXPECT_EQ(got.per_query[i], BruteForceRangeQuery(mesh, boxes[i]))
            << "box " << i;
      } else {
        EXPECT_EQ(got.per_query[i], want.per_query[i]) << "box " << i;
      }
    }
    const PhaseStats& stats = routed.stats();
    EXPECT_GT(scanned, 0u);
    EXPECT_LT(scanned, boxes.size());
    EXPECT_EQ(stats.queries, boxes.size());
    EXPECT_EQ(stats.scan_queries, scanned);
    EXPECT_GT(stats.scan_blocks_skipped, 0u);
    EXPECT_GT(stats.scan_vertices_tested, scanned_results);
    EXPECT_GT(stats.scan_nanos, 0);
    EXPECT_EQ(paper.stats().scan_queries, 0u);
  }
}

/// Runs `boxes` in every order of `ArrivalOrders(boxes.size(), seed)`
/// through `run` and requires each box's ids, in order, to be `want`'s
/// for that box and the scan-routed count to be `want_scans`.
template <typename Run>
void ExpectRoutedAnswers(std::span<const AABB> boxes,
                         const engine::QueryBatchResult& want,
                         size_t want_scans, uint64_t seed, const Run& run) {
  const std::vector<std::vector<size_t>> orders =
      ArrivalOrders(boxes.size(), seed);
  for (size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE("arrival order " + std::to_string(o));
    std::vector<AABB> arrived;
    for (const size_t i : orders[o]) arrived.push_back(boxes[i]);
    engine::QueryBatchResult result;
    PhaseStats stats;
    run(std::span<const AABB>(arrived), &result, &stats);
    ASSERT_EQ(result.size(), boxes.size());
    for (size_t slot = 0; slot < arrived.size(); ++slot) {
      ASSERT_EQ(result.per_query[slot], want.per_query[orders[o][slot]])
          << "box " << orders[o][slot];
    }
    EXPECT_EQ(stats.scan_queries, want_scans);
  }
}

TEST(ScanRouteTest, RoutesAndAnswersAlikeInMemoryAndPaged) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  const TetraMesh base_mesh = BaseMesh(neuro);
  Octopus octopus;
  octopus.Build(base_mesh);
  const std::vector<AABB> boxes = OrderBoxes(mesh, 72);
  engine::QueryBatchResult want;
  octopus.RangeQueryBatch(mesh, boxes, &want);
  const size_t want_scans = octopus.stats().scan_queries;
  ASSERT_GT(want_scans, 0u);
  ASSERT_LT(want_scans, boxes.size());

  // The deformed positions as a 4 KiB page table, over the snapshot of
  // the step-0 mesh for the paged executor.
  constexpr size_t kPageBytes = storage::kDefaultPageBytes;
  const std::string path = ::testing::TempDir() + "/scan_route.oct2";
  ASSERT_TRUE(SaveSnapshot(base_mesh, path,
                           storage::SnapshotOptions{.page_bytes = kPageBytes})
                  .ok());
  const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), kPageBytes, nullptr, neuro.base, mesh.positions(),
      nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats reload_io;
  ASSERT_TRUE(epoch.Load(*overlay, &reload_io).ok());
  const auto per_page = static_cast<uint32_t>(overlay->positions_per_page());
  const MeshGraphView graph = mesh.Graph();
  engine::ContextPool contexts;
  contexts.set_num_vertices(mesh.num_vertices());
  PagedOctopus::Options options;
  options.pool.pool_bytes = 64 * kPageBytes;
  auto paged = PagedOctopus::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ(paged.Value()->route().break_even_selectivity(),
            octopus.route().break_even_selectivity());

  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    {
      SCOPED_TRACE("flat");
      ExpectRoutedAnswers(
          boxes, want, want_scans, 73,
          [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
              PhaseStats* stats) {
            octopus.ResetStats();
            octopus.RangeQueryBatch(mesh, arrived, out, p);
            *stats = octopus.stats();
          });
    }
    {
      SCOPED_TRACE("page table");
      ExpectRoutedAnswers(
          boxes, want, want_scans, 74,
          [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
              PhaseStats* stats) {
            contexts.ResetStats();
            ExecuteOctopusBatch(
                [&](engine::ExecutionContext*) {
                  return storage::InMemoryMeshAccessor(graph, epoch.pages(),
                                                       per_page);
                },
                octopus.surface_index(), OctopusOptions{}, octopus.route(),
                arrived, out, p, &contexts);
            *stats = contexts.stats();
          });
    }
    {
      SCOPED_TRACE("paged");
      ExpectRoutedAnswers(
          boxes, want, want_scans, 75,
          [&](std::span<const AABB> arrived, engine::QueryBatchResult* out,
              PhaseStats* stats) {
            paged.Value()->ResetStats();
            paged.Value()->RangeQueryBatch(arrived, out, p, epoch.pages());
            *stats = paged.Value()->stats();
          });
    }
  }
  std::remove(path.c_str());
}

TEST(ScanRouteTest, LinearScanIsTheTiledKernelInIdOrder) {
  const DeformedNeuro neuro = MakeDeformedNeuro();
  const TetraMesh& mesh = neuro.mesh;
  std::vector<AABB> boxes = OrderBoxes(mesh, 76);
  // More than one tile, so later tiles skip by the first tile's bounds;
  // plus boxes the kernel must still answer exactly: all of space,
  // empty, inverted and NaN.
  const std::vector<AABB> more = OrderBoxes(mesh, 77);
  boxes.insert(boxes.end(), more.begin(), more.end());
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  boxes.push_back(AABB(Vec3(-kInf, -kInf, -kInf), Vec3(kInf, kInf, kInf)));
  boxes.push_back(AABB(Vec3(1e6f, 1e6f, 1e6f), Vec3(2e6f, 2e6f, 2e6f)));
  boxes.push_back(AABB(Vec3(1, 1, 1), Vec3(-1, -1, -1)));
  boxes.push_back(AABB(Vec3(kNaN, 0, 0), Vec3(kNaN, 1, 1)));
  ASSERT_GT(boxes.size(), kScanTileBoxes);
  LinearScan scan;
  engine::QueryBatchResult batch;
  scan.RangeQueryBatch(mesh, boxes, &batch);
  ASSERT_EQ(batch.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(batch.per_query[i], BruteForceRangeQuery(mesh, boxes[i]))
        << "box " << i;
    std::vector<VertexId> alone = {kInvalidVertex};  // appends only
    scan.RangeQuery(mesh, boxes[i], &alone);
    alone.erase(alone.begin());
    EXPECT_EQ(alone, batch.per_query[i]) << "box " << i;
  }
  EXPECT_EQ(batch.per_query[boxes.size() - 4].size(), mesh.num_vertices());
}

// ---------- OCTOPUS-CON ----------

TEST(OctopusConTest, ExactOnConvexMeshUnderAffineDeformation) {
  TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF2, 0.15).MoveValue();
  OctopusCon con;
  con.Build(mesh);
  WaveDeformer deformer(0.02f, 0.01f);
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(13);
  for (int step = 1; step <= 8; ++step) {
    deformer.ApplyStep(step, &mesh);  // grid is now stale — by design
    for (int q = 0; q < 5; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.002 + 0.01 * rng.NextDouble());
      std::vector<VertexId> got;
      con.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
}

TEST(OctopusConTest, EmptyQueryOutsideMesh) {
  const TetraMesh mesh = MakeBox(6);
  OctopusCon con;
  con.Build(mesh);
  std::vector<VertexId> got;
  con.RangeQuery(mesh, AABB(Vec3(4, 4, 4), Vec3(5, 5, 5)), &got);
  EXPECT_TRUE(got.empty());
}

TEST(OctopusConTest, FinerGridShortensWalk) {
  // Paper Fig. 9(c): finer grids -> fewer vertices visited in the walk.
  const TetraMesh mesh = MakeBox(16);
  QueryGenerator gen(mesh);

  auto walk_cost = [&](int resolution) {
    OctopusCon con(OctopusConOptions{.grid_resolution = resolution});
    con.Build(mesh);
    Rng rng(17);
    for (int i = 0; i < 30; ++i) {
      std::vector<VertexId> got;
      con.RangeQuery(mesh, gen.MakeQuery(&rng, 0.001), &got);
    }
    return con.stats().walk_vertices;
  };
  const size_t coarse = walk_cost(2);    // 8 cells
  const size_t fine = walk_cost(14);     // 2744 cells
  EXPECT_LT(fine, coarse);
}

TEST(OctopusConTest, GridFootprintGrowsWithResolution) {
  const TetraMesh mesh = MakeBox(8);
  OctopusCon coarse(OctopusConOptions{.grid_resolution = 2});
  OctopusCon fine(OctopusConOptions{.grid_resolution = 18});
  coarse.Build(mesh);
  fine.Build(mesh);
  EXPECT_GT(fine.grid().FootprintBytes(), coarse.grid().FootprintBytes());
}

TEST(OctopusConTest, NoMaintenanceHooks) {
  TetraMesh mesh = MakeBox(5);
  OctopusCon con;
  con.Build(mesh);
  const size_t footprint = con.FootprintBytes();
  con.BeforeQueries(mesh);  // must be a no-op
  EXPECT_EQ(con.FootprintBytes(), footprint);
}

}  // namespace
}  // namespace octopus
