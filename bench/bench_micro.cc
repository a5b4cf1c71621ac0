// Copyright 2026 The OCTOPUS Reproduction Authors
// google-benchmark micro-benchmarks of the primitive operations behind the
// figures, plus the tuning-parameter ablations the paper mentions in
// Sec. V-A (R-tree fanout sweep, octree bucket-size sweep, QU-Trade grace
// window): per-op costs of the surface probe, crawl, directed walk, index
// builds and update paths.
// Results are also written to BENCH_micro.json (see main below) so the
// perf trajectory is machine-readable across PRs.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "index/linear_scan.h"
#include "index/lur_tree.h"
#include "index/octree.h"
#include "index/qu_trade.h"
#include "index/rtree.h"
#include "mesh/generators/datasets.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "octopus/query_executor.h"
#include "sim/random_deformer.h"
#include "sim/workload.h"
#include "storage/delta_overlay.h"
#include "storage/mesh_accessor.h"
#include "storage/page.h"

namespace octopus {
namespace {

// Shared fixture data: one mid-size neuro mesh, built once.
const TetraMesh& BenchMesh() {
  static const TetraMesh mesh = MakeNeuroMesh(1, 0.5).MoveValue();
  return mesh;
}

AABB BenchQuery(double selectivity, uint64_t seed = 1) {
  static QueryGenerator gen(BenchMesh());
  Rng rng(seed);
  return gen.MakeQuery(&rng, selectivity);
}

void BM_LinearScanQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  LinearScan scan;
  scan.Build(mesh);
  const AABB q = BenchQuery(0.001);
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    scan.RangeQuery(mesh, q, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_vertices());
}
BENCHMARK(BM_LinearScanQuery);

void BM_SurfaceProbe(benchmark::State& state) {
  // Probe cost alone: a query that intersects nothing keeps the crawl
  // empty, so the measured time is the pure probe.
  const TetraMesh& mesh = BenchMesh();
  Octopus octo;
  octo.Build(mesh);
  const AABB q(Vec3(50, 50, 50), Vec3(51, 51, 51));
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    octo.RangeQuery(mesh, q, &out);
  }
  state.SetItemsProcessed(state.iterations() *
                          octo.surface_index().num_surface_vertices());
}
BENCHMARK(BM_SurfaceProbe);

void BM_OctopusQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  Octopus octo;
  octo.Build(mesh);
  const AABB q = BenchQuery(state.range(0) / 10000.0);
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    octo.RangeQuery(mesh, q, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
// Selectivity 0.01% .. 0.2% in basis points of a percent (range/10000 %).
BENCHMARK(BM_OctopusQuery)->Arg(1)->Arg(10)->Arg(20);

// --- Batched execution through the QueryEngine ---
// The acceptance workload for the engine: a simulation step's worth of
// queries executed as one batch, sharded across the engine's threads.
// Arg = thread count; per-query results are identical across counts.
void BM_OctopusBatchQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  Octopus octo;
  octo.Build(mesh);
  engine::QueryEngine eng(
      engine::QueryEngineOptions{.threads = static_cast<int>(state.range(0))});
  QueryGenerator gen(mesh);
  Rng rng(7);
  const engine::QueryBatch batch = gen.MakeBatch(&rng, 64, 0.0005, 0.002);
  engine::QueryBatchResult out;
  for (auto _ : state) {
    eng.Execute(octo, mesh, batch, &out);
    benchmark::DoNotOptimize(out.TotalResults());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_OctopusBatchQuery)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Engine overhead control: the same batch through the sequential default
// path of a baseline — measures the batching machinery, not parallelism.
void BM_LinearScanBatchQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  LinearScan scan;
  scan.Build(mesh);
  engine::QueryEngine eng;
  QueryGenerator gen(mesh);
  Rng rng(7);
  const engine::QueryBatch batch = gen.MakeBatch(&rng, 64, 0.0005, 0.002);
  engine::QueryBatchResult out;
  for (auto _ : state) {
    eng.Execute(scan, mesh, batch, &out);
    benchmark::DoNotOptimize(out.TotalResults());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_LinearScanBatchQuery)->Unit(benchmark::kMillisecond);

// The crawl as the in-memory backend serves it: positions read through
// an epoch's 4 KiB position page table, on neuro L3 with 2-4% boxes, one
// in-box start per box. `time_per_edge` is the time per adjacency entry
// inspected, the crawl's unit of work.
void BM_Crawl(benchmark::State& state) {
  static const TetraMesh mesh = MakeNeuroMesh(3, 1.0).MoveValue();
  static const auto overlay = storage::PositionOverlay::BuildNext(
      mesh.num_vertices(), storage::kDefaultPageBytes, nullptr, {},
      mesh.positions(), nullptr);
  storage::ResidentEpoch epoch;
  storage::PageIOStats io;
  if (!epoch.Load(*overlay, &io).ok()) {
    state.SkipWithError("epoch load failed");
    return;
  }
  storage::InMemoryMeshAccessor accessor(
      mesh.Graph(), epoch.pages(),
      static_cast<uint32_t>(overlay->positions_per_page()));
  QueryGenerator gen(mesh);
  Rng rng(11);
  const std::vector<AABB> boxes = gen.MakeQueries(&rng, 16, 0.02, 0.04);
  std::vector<std::vector<VertexId>> starts(boxes.size());
  for (size_t b = 0; b < boxes.size(); ++b) {
    for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
      if (boxes[b].Contains(mesh.position(v))) {
        starts[b].push_back(v);
        break;
      }
    }
  }
  Crawler crawler;
  crawler.EnsureSize(mesh.num_vertices());
  std::vector<VertexId> out;
  double edges = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < boxes.size(); ++b) {
      out.clear();
      edges += static_cast<double>(
          crawler.Crawl(accessor, boxes[b], starts[b], &out).edges_traversed);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.counters["time_per_edge"] = benchmark::Counter(
      edges, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Crawl)->Unit(benchmark::kMillisecond);

void BM_DirectedWalk(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  const AABB q = BenchQuery(0.001);
  // Marks and heap reused across walks, as in an execution context.
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  VisitedMarks marks;
  marks.EnsureSize(mesh.num_vertices());
  std::vector<WalkFrontier> heap;
  for (auto _ : state) {
    const WalkResult r = DirectedWalk(accessor, q, 0, &marks, &heap);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_DirectedWalk);

void BM_SurfaceIndexBuild(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  for (auto _ : state) {
    SurfaceIndex index;
    index.Build(mesh);
    benchmark::DoNotOptimize(index.num_surface_vertices());
  }
}
BENCHMARK(BM_SurfaceIndexBuild);

// --- Octree bucket-size ablation (paper tuned 10,000 via sweep) ---
void BM_OctreeBuild(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  Octree::Options options;
  options.bucket_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Octree tree(options);
    tree.Build(mesh.positions());
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_vertices());
}
BENCHMARK(BM_OctreeBuild)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Arg(10000);

void BM_OctreeQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  Octree::Options options;
  options.bucket_size = static_cast<int>(state.range(0));
  Octree tree(options);
  tree.Build(mesh.positions());
  const AABB q = BenchQuery(0.001);
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    tree.Query(q, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_OctreeQuery)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Arg(10000);

// --- R-tree fanout ablation (paper tuned 110 via sweep) ---
void BM_RTreeBulkLoad(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  RTree::Options options;
  options.fanout = static_cast<int>(state.range(0));
  std::vector<RTree::Entry> entries;
  for (size_t v = 0; v < mesh.num_vertices(); ++v) {
    const Vec3& p = mesh.position(static_cast<VertexId>(v));
    entries.push_back({static_cast<VertexId>(v), AABB(p, p)});
  }
  for (auto _ : state) {
    RTree tree(options);
    tree.BulkLoad(entries);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(16)->Arg(55)->Arg(110)->Arg(220);

void BM_RTreeQuery(benchmark::State& state) {
  const TetraMesh& mesh = BenchMesh();
  RTree::Options options;
  options.fanout = static_cast<int>(state.range(0));
  RTree tree(options);
  std::vector<RTree::Entry> entries;
  for (size_t v = 0; v < mesh.num_vertices(); ++v) {
    const Vec3& p = mesh.position(static_cast<VertexId>(v));
    entries.push_back({static_cast<VertexId>(v), AABB(p, p)});
  }
  tree.BulkLoad(std::move(entries));
  const AABB q = BenchQuery(0.001);
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    tree.QueryIds(q, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RTreeQuery)->Arg(16)->Arg(55)->Arg(110)->Arg(220);

// --- Per-step maintenance cost of the moving-object baselines ---
void BM_LURTreeMaintenanceStep(benchmark::State& state) {
  TetraMesh mesh = BenchMesh();
  LURTree index;
  index.Build(mesh);
  RandomDeformer deformer(0.2f * EstimateMeanEdgeLength(mesh));
  deformer.Bind(mesh);
  int step = 0;
  for (auto _ : state) {
    state.PauseTiming();
    deformer.ApplyStep(++step, &mesh);
    state.ResumeTiming();
    index.BeforeQueries(mesh);
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_vertices());
}
BENCHMARK(BM_LURTreeMaintenanceStep)->Unit(benchmark::kMillisecond);

void BM_QUTradeMaintenanceStep(benchmark::State& state) {
  TetraMesh mesh = BenchMesh();
  QUTrade index;
  index.Build(mesh);
  RandomDeformer deformer(0.2f * EstimateMeanEdgeLength(mesh));
  deformer.Bind(mesh);
  int step = 0;
  for (auto _ : state) {
    state.PauseTiming();
    deformer.ApplyStep(++step, &mesh);
    state.ResumeTiming();
    index.BeforeQueries(mesh);
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_vertices());
}
BENCHMARK(BM_QUTradeMaintenanceStep)->Unit(benchmark::kMillisecond);

// Console output plus a machine-readable record of every run, written to
// BENCH_micro.json at exit so CI and future PRs can diff the numbers.
// google-benchmark < 1.8 exposes Run::error_occurred; 1.8+ replaced it
// with Run::skipped. Detect whichever this build has.
template <typename R>
auto RunWasSkipped(const R& run, int) -> decltype(run.error_occurred) {
  return run.error_occurred;
}
template <typename R>
auto RunWasSkipped(const R& run, long)
    -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}

class JsonSavingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (RunWasSkipped(run, 0)) continue;
      writer_.BeginObject();
      writer_.Field("name", run.benchmark_name());
      writer_.Field("iterations", static_cast<int64_t>(run.iterations));
      writer_.Field("real_time_ns", run.GetAdjustedRealTime() *
                                        GetTimeUnitMultiplier(run.time_unit));
      writer_.Field("cpu_time_ns", run.GetAdjustedCPUTime() *
                                       GetTimeUnitMultiplier(run.time_unit));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        writer_.Field("items_per_second",
                      static_cast<double>(items->second));
      }
      writer_.EndObject();
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const bench::JsonWriter& writer() const { return writer_; }

 private:
  // ns per reported unit: runs carry times in their own time unit.
  static double GetTimeUnitMultiplier(benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond: return 1.0;
      case benchmark::kMicrosecond: return 1e3;
      case benchmark::kMillisecond: return 1e6;
      case benchmark::kSecond: return 1e9;
    }
    return 1.0;
  }

  // Fixed fixtures: OCTOPUS_BENCH_SCALE/STEPS do not apply here.
  bench::JsonWriter writer_{/*scale=*/1.0, /*steps=*/0};
};

}  // namespace
}  // namespace octopus

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  octopus::JsonSavingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.writer().WriteTo("BENCH_micro.json")) {
    std::fprintf(stderr, "failed to write BENCH_micro.json\n");
    return 1;
  }
  std::fprintf(stderr, "wrote BENCH_micro.json (%zu records)\n",
               reporter.writer().num_objects());
  benchmark::Shutdown();
  return 0;
}
