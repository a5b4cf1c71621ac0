// Copyright 2026 The OCTOPUS Reproduction Authors
// Tests for the batched query engine: for every SpatialIndex
// implementation, batched execution (sequential default or OCTOPUS's
// parallel path, at 1 and 4 threads) must return exactly the same
// per-query result sets as the per-query RangeQuery path on a deformed
// mesh; OCTOPUS's merged stats counters must be independent of the
// thread count; PhaseStats merge/reset must be exact; and the thread
// pool must run every shard exactly once, every time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/thread_pool.h"
#include "index/linear_scan.h"
#include "index/lur_tree.h"
#include "index/octree.h"
#include "index/qu_trade.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/generators/hexa_generator.h"
#include "mesh/hilbert_layout.h"
#include "mesh/mesh_io.h"
#include "octopus/hex_octopus.h"
#include "octopus/paged_executor.h"
#include "octopus/octopus_con.h"
#include "octopus/phase_stats.h"
#include "octopus/planner.h"
#include "octopus/query_executor.h"
#include "sim/random_deformer.h"
#include "sim/workload.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// A deformed mesh plus an index that replayed the deformation through its
// maintenance path, as the harness protocol does.
struct DeformedSetup {
  TetraMesh mesh;
  std::vector<AABB> queries;
};

DeformedSetup MakeDeformedSetup(SpatialIndex* index, int steps = 4) {
  DeformedSetup setup{MakeBox(8), {}};
  index->Build(setup.mesh);
  RandomDeformer deformer(0.02f, /*seed=*/7);
  deformer.Bind(setup.mesh);
  for (int step = 1; step <= steps; ++step) {
    deformer.ApplyStep(step, &setup.mesh);
    index->BeforeQueries(setup.mesh);
  }
  QueryGenerator gen(setup.mesh);
  Rng rng(11);
  setup.queries = gen.MakeQueries(&rng, 30, 0.001, 0.03);
  // A query that misses the mesh entirely (empty result path).
  setup.queries.push_back(AABB(Vec3(5, 5, 5), Vec3(6, 6, 6)));
  return setup;
}

std::vector<std::unique_ptr<SpatialIndex>> AllIndexes() {
  std::vector<std::unique_ptr<SpatialIndex>> v;
  v.push_back(std::make_unique<Octopus>());
  v.push_back(std::make_unique<Octopus>(OctopusOptions{
      .visited_mode = VisitedMode::kHashSet}));
  v.push_back(std::make_unique<LinearScan>());
  v.push_back(std::make_unique<ThrowawayOctree>());
  v.push_back(std::make_unique<LURTree>());
  v.push_back(std::make_unique<QUTrade>());
  v.push_back(std::make_unique<OctopusCon>());
  return v;
}

TEST(QueryEngineTest, BatchParityAcrossAllIndexesAndThreadCounts) {
  for (auto& index : AllIndexes()) {
    SCOPED_TRACE(index->Name());
    const DeformedSetup setup = MakeDeformedSetup(index.get());

    // Ground truth: the per-query sequential path.
    std::vector<std::vector<VertexId>> expected;
    for (const AABB& q : setup.queries) {
      std::vector<VertexId> out;
      index->RangeQuery(setup.mesh, q, &out);
      expected.push_back(Sorted(out));
    }

    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      engine::QueryEngine eng(
          engine::QueryEngineOptions{.threads = threads});
      engine::QueryBatchResult results;
      eng.Execute(*index, setup.mesh, setup.queries, &results);
      ASSERT_EQ(results.size(), setup.queries.size());
      for (size_t q = 0; q < expected.size(); ++q) {
        EXPECT_EQ(Sorted(results.per_query[q]), expected[q])
            << "query " << q;
      }
    }
  }
}

TEST(QueryEngineTest, MoreThreadsThanQueries) {
  // Regression: a pool wider than the batch must leave the excess
  // threads idle, not index past the per-shard contexts.
  Octopus octopus;
  const DeformedSetup setup = MakeDeformedSetup(&octopus);
  engine::QueryEngine eng(engine::QueryEngineOptions{.threads = 16});
  engine::QueryBatchResult results;
  std::vector<AABB> two(setup.queries.begin(), setup.queries.begin() + 2);
  eng.Execute(octopus, setup.mesh, two, &results);
  ASSERT_EQ(results.size(), 2u);
  for (size_t q = 0; q < two.size(); ++q) {
    EXPECT_EQ(Sorted(results.per_query[q]),
              BruteForceRangeQuery(setup.mesh, two[q]));
  }

  // Empty batch through a wide pool.
  eng.Execute(octopus, setup.mesh, std::vector<AABB>{}, &results);
  EXPECT_EQ(results.size(), 0u);
}

TEST(QueryEngineTest, BatchSizeEdgeCases) {
  // Empty batch, single-query batch, and a batch larger than the shard
  // count must all behave identically at 1 and 4 threads: the exact
  // per-query-path results, correctly sized result vectors, and stats
  // that account for exactly the executed queries. (Parity against the
  // per-query path, not brute force: on a deformed mesh a box can
  // contain mesh-disconnected vertex clusters, which the paper's crawl
  // by design reports per reachable component — exactness on connected
  // regions is covered by BatchMatchesBruteForceOnDeformedMesh.)
  Octopus octopus;
  const DeformedSetup setup = MakeDeformedSetup(&octopus);
  QueryGenerator gen(setup.mesh);
  Rng rng(33);

  auto expected_for = [&](const std::vector<AABB>& queries) {
    std::vector<std::vector<VertexId>> expected;
    for (const AABB& q : queries) {
      std::vector<VertexId> out;
      octopus.RangeQuery(setup.mesh, q, &out);
      expected.push_back(Sorted(out));
    }
    return expected;
  };

  const std::vector<AABB> one = gen.MakeQueries(&rng, 1, 0.01, 0.01);
  std::vector<AABB> nine = gen.MakeQueries(&rng, 8, 0.001, 0.02);
  nine.push_back(AABB(Vec3(5, 5, 5), Vec3(6, 6, 6)));  // miss
  const auto expected_one = expected_for(one);
  const auto expected_nine = expected_for(nine);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::QueryEngine eng(engine::QueryEngineOptions{.threads = threads});
    engine::QueryBatchResult results;

    // Empty batch: no results, no queries counted.
    octopus.ResetStats();
    eng.Execute(octopus, setup.mesh, std::vector<AABB>{}, &results);
    EXPECT_EQ(results.size(), 0u);
    EXPECT_EQ(results.TotalResults(), 0u);
    EXPECT_EQ(octopus.stats().queries, 0u);

    // Single-query batch: one shard does all the work, even on a wider
    // pool.
    octopus.ResetStats();
    eng.Execute(octopus, setup.mesh, one, &results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(Sorted(results.per_query[0]), expected_one[0]);
    EXPECT_EQ(octopus.stats().queries, 1u);

    // Batch larger than the shard count: every shard gets multiple
    // queries and the contiguous split must cover all of them.
    octopus.ResetStats();
    eng.Execute(octopus, setup.mesh, nine, &results);
    ASSERT_EQ(results.size(), nine.size());
    for (size_t q = 0; q < nine.size(); ++q) {
      EXPECT_EQ(Sorted(results.per_query[q]), expected_nine[q])
          << "query " << q;
    }
    EXPECT_EQ(octopus.stats().queries, nine.size());
  }
}

TEST(QueryEngineTest, BatchMatchesBruteForceOnDeformedMesh) {
  Octopus octopus;
  const DeformedSetup setup = MakeDeformedSetup(&octopus);
  engine::QueryEngine eng(engine::QueryEngineOptions{.threads = 4});
  engine::QueryBatchResult results;
  eng.Execute(octopus, setup.mesh, setup.queries, &results);
  for (size_t q = 0; q < setup.queries.size(); ++q) {
    EXPECT_EQ(Sorted(results.per_query[q]),
              BruteForceRangeQuery(setup.mesh, setup.queries[q]))
        << "query " << q;
  }
}

TEST(QueryEngineTest, AdaptiveExecutorRunsThroughEngine) {
  // The planner routes per query; it inherits the sequential batch
  // default and must agree with its own per-query path.
  AdaptiveExecutor adaptive;
  const DeformedSetup setup = MakeDeformedSetup(&adaptive);
  std::vector<std::vector<VertexId>> expected;
  for (const AABB& q : setup.queries) {
    std::vector<VertexId> out;
    adaptive.RangeQuery(setup.mesh, q, &out);
    expected.push_back(Sorted(out));
  }
  engine::QueryEngine eng(engine::QueryEngineOptions{.threads = 4});
  engine::QueryBatchResult results;
  eng.Execute(adaptive, setup.mesh, setup.queries, &results);
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(Sorted(results.per_query[q]), expected[q]) << "query " << q;
  }
}

TEST(QueryEngineTest, HexOctopusBatchParity) {
  // The hexahedral executor shares the batch core; its batch path must
  // agree with its per-query path at any thread count.
  const HexaMesh mesh =
      GenerateHexBoxMesh(8, 8, 8, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
          .MoveValue();
  HexOctopus octo;
  octo.Build(mesh);

  std::vector<AABB> queries;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Vec3 lo = rng.NextPointIn(AABB(Vec3(0, 0, 0), Vec3(0.8f, 0.8f,
                                                             0.8f)));
    queries.push_back(AABB(lo, lo + Vec3(0.2f, 0.2f, 0.2f)));
  }
  queries.push_back(AABB(Vec3(3, 3, 3), Vec3(4, 4, 4)));  // miss

  std::vector<std::vector<VertexId>> expected;
  for (const AABB& q : queries) {
    std::vector<VertexId> out;
    octo.RangeQuery(mesh, q, &out);
    expected.push_back(Sorted(out));
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    engine::ThreadPool pool(threads);
    engine::QueryBatchResult results;
    octo.RangeQueryBatch(mesh, queries, &results,
                         threads > 1 ? &pool : nullptr);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t q = 0; q < expected.size(); ++q) {
      EXPECT_EQ(Sorted(results.per_query[q]), expected[q]) << "query " << q;
    }
  }
}

// Out-of-core parity: the paged executor over a snapshot must return
// exactly the in-memory result sets and the identical non-I/O counters,
// for any pool size >= 2 pages and at 1 and 4 threads, in both layouts.
TEST(QueryEngineTest, PagedVsInMemoryParity) {
  const TetraMesh base = MakeBox(8);
  QueryGenerator gen(base);
  Rng rng(21);
  std::vector<AABB> queries = gen.MakeQueries(&rng, 24, 0.001, 0.02);
  queries.push_back(AABB(Vec3(5, 5, 5), Vec3(6, 6, 6)));  // miss

  constexpr size_t kPageBytes = 512;
  for (const auto layout : {storage::SnapshotLayout::kOriginal,
                            storage::SnapshotLayout::kHilbert}) {
    SCOPED_TRACE(storage::LayoutName(layout));
    const std::string path = ::testing::TempDir() + "/engine_parity_" +
                             storage::LayoutName(layout) + ".oct2";
    ASSERT_TRUE(
        SaveSnapshot(base, path,
                     storage::SnapshotOptions{.page_bytes = kPageBytes,
                                              .layout = layout})
            .ok());

    // The in-memory reference runs on the same vertex order the
    // snapshot was written in.
    const TetraMesh reference =
        layout == storage::SnapshotLayout::kHilbert
            ? ApplyPermutation(base, ComputeHilbertOrder(base))
            : base;
    Octopus octopus;
    octopus.Build(reference);
    engine::QueryEngine reference_engine;
    engine::QueryBatchResult expected;
    reference_engine.Execute(octopus, reference, queries, &expected);
    const PhaseStats reference_stats = octopus.stats();

    for (const size_t pool_bytes :
         {2 * kPageBytes, 16 * kPageBytes, size_t{1} << 20}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(pool_bytes) + " pool bytes, " +
                     std::to_string(threads) + " threads");
        PagedOctopus::Options options;
        options.pool.pool_bytes = pool_bytes;
        auto paged = PagedOctopus::Open(path, options);
        ASSERT_TRUE(paged.ok()) << paged.status().ToString();
        engine::QueryEngine eng(
            engine::QueryEngineOptions{.threads = threads});
        engine::QueryBatchResult results;
        eng.Execute(*paged.Value(), queries, &results);
        ASSERT_EQ(results.size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(Sorted(results.per_query[q]),
                    Sorted(expected.per_query[q]))
              << "query " << q;
        }
        // Identical algorithm -> identical non-I/O counters, regardless
        // of pool size or thread count.
        const PhaseStats& stats = paged.Value()->stats();
        EXPECT_EQ(stats.queries, reference_stats.queries);
        EXPECT_EQ(stats.probed_vertices, reference_stats.probed_vertices);
        EXPECT_EQ(stats.walk_invocations,
                  reference_stats.walk_invocations);
        EXPECT_EQ(stats.walk_vertices, reference_stats.walk_vertices);
        EXPECT_EQ(stats.crawl_edges, reference_stats.crawl_edges);
        EXPECT_EQ(stats.result_vertices, reference_stats.result_vertices);
        // The in-memory run does no page I/O; the paged one must.
        EXPECT_EQ(reference_stats.page_io.PageAccesses(), 0u);
        EXPECT_GT(stats.page_io.PageAccesses(), 0u);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(QueryEngineTest, OctopusStatsCountersIndependentOfThreadCount) {
  PhaseStats counts[2];
  const int thread_options[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Octopus octopus;
    const DeformedSetup setup = MakeDeformedSetup(&octopus);
    engine::QueryEngine eng(
        engine::QueryEngineOptions{.threads = thread_options[i]});
    engine::QueryBatchResult results;
    eng.Execute(octopus, setup.mesh, setup.queries, &results);
    counts[i] = octopus.stats();
  }
  EXPECT_EQ(counts[0].queries, counts[1].queries);
  EXPECT_EQ(counts[0].probed_vertices, counts[1].probed_vertices);
  EXPECT_EQ(counts[0].walk_invocations, counts[1].walk_invocations);
  EXPECT_EQ(counts[0].walk_vertices, counts[1].walk_vertices);
  EXPECT_EQ(counts[0].crawl_edges, counts[1].crawl_edges);
  EXPECT_EQ(counts[0].result_vertices, counts[1].result_vertices);
}

TEST(QueryEngineTest, ResultSlotsAreRecycledAcrossBatches) {
  LinearScan scan;
  const DeformedSetup setup = MakeDeformedSetup(&scan);
  engine::QueryEngine eng;
  engine::QueryBatchResult results;
  eng.Execute(scan, setup.mesh, setup.queries, &results);
  const size_t full = results.TotalResults();
  ASSERT_GT(full, 0u);
  // A smaller second batch must not leak results from the first.
  std::vector<AABB> tiny(setup.queries.begin(), setup.queries.begin() + 2);
  eng.Execute(scan, setup.mesh, tiny, &results);
  ASSERT_EQ(results.size(), 2u);
  std::vector<VertexId> expected;
  scan.RangeQuery(setup.mesh, tiny[0], &expected);
  EXPECT_EQ(Sorted(results.per_query[0]), Sorted(expected));
}

TEST(PhaseStatsTest, MergeSumsEveryCounter) {
  PhaseStats a;
  a.probe_nanos = 1;
  a.walk_nanos = 2;
  a.crawl_nanos = 3;
  a.queries = 4;
  a.probed_vertices = 5;
  a.walk_invocations = 6;
  a.walk_vertices = 7;
  a.crawl_edges = 8;
  a.result_vertices = 9;
  a.page_io.page_hits = 10;
  a.page_io.page_misses = 11;
  a.page_io.page_evictions = 12;
  PhaseStats b = a;
  b.Merge(a);
  EXPECT_EQ(b.probe_nanos, 2);
  EXPECT_EQ(b.walk_nanos, 4);
  EXPECT_EQ(b.crawl_nanos, 6);
  EXPECT_EQ(b.queries, 8u);
  EXPECT_EQ(b.probed_vertices, 10u);
  EXPECT_EQ(b.walk_invocations, 12u);
  EXPECT_EQ(b.walk_vertices, 14u);
  EXPECT_EQ(b.crawl_edges, 16u);
  EXPECT_EQ(b.result_vertices, 18u);
  EXPECT_EQ(b.page_io.page_hits, 20u);
  EXPECT_EQ(b.page_io.page_misses, 22u);
  EXPECT_EQ(b.page_io.page_evictions, 24u);
  EXPECT_EQ(b.page_io.PageAccesses(), 42u);
  EXPECT_EQ(b.TotalNanos(), 12);

  b.Reset();
  EXPECT_EQ(b.queries, 0u);
  EXPECT_EQ(b.TotalNanos(), 0);
  EXPECT_EQ(b.result_vertices, 0u);
  EXPECT_EQ(b.page_io.PageAccesses(), 0u);
  EXPECT_EQ(b.page_io.page_evictions, 0u);
}

TEST(ThreadPoolTest, RunsEveryShardExactlyOnceEveryTime) {
  engine::ThreadPool pool(4);
  ASSERT_EQ(pool.threads(), 4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits[4] = {0, 0, 0, 0};
    pool.Run([&](int shard) { ++hits[shard]; });
    for (int shard = 0; shard < 4; ++shard) {
      EXPECT_EQ(hits[shard].load(), 1) << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  engine::ThreadPool pool(1);
  ASSERT_EQ(pool.threads(), 1);
  int hits = 0;
  pool.Run([&](int shard) {
    EXPECT_EQ(shard, 0);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace octopus
