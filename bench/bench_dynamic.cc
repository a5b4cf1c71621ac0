// Copyright 2026 The OCTOPUS Reproduction Authors
// Dynamic-serving benchmark: an epoch-versioned backend advancing a
// deformer for K steps while a fixed-size query batch executes at every
// epoch — the paper's SIMULATE/MONITOR timeline against a stale,
// built-once index. Measures per-step query latency/throughput and the
// stale-start drift (directed-walk work grows as the mesh drifts away
// from the step-0 surface geometry), in-memory and paged (where each
// step's cost is the OCT2 delta pages it rewrites). Every step's
// results are parity-checked against the in-process engine on the same
// trajectory. Emits BENCH_dynamic.json; its summary record carries the
// run's deterministic traversal totals, which tools/check_perf_smoke.py
// compares with the committed baseline.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "octopus/query_executor.h"
#include "server/versioned_backend.h"
#include "sim/deformer_spec.h"
#include "sim/workload.h"
#include "storage/snapshot.h"

namespace {

using namespace octopus;

struct StepRecord {
  uint32_t step = 0;
  double wall_seconds = 0.0;
  int64_t probe_nanos = 0;
  int64_t walk_nanos = 0;
  int64_t crawl_nanos = 0;
  int64_t merge_nanos = 0;
  uint64_t walk_invocations = 0;
  uint64_t walk_vertices = 0;
  uint64_t crawl_edges = 0;
  uint64_t result_vertices = 0;
  uint64_t scan_queries = 0;
  uint64_t page_accesses = 0;
  uint64_t lease_hits = 0;
  uint64_t pages_leased = 0;
  uint64_t pages_distinct = 0;
  uint64_t pages_rewritten = 0;
  bool parity_ok = true;
};

struct RunSummary {
  std::vector<StepRecord> steps;
  double total_wall_seconds = 0.0;
  bool parity_ok = true;
  /// Surface positions the backend's fused probe read, over all steps.
  uint64_t probe_position_reads = 0;
  size_t surface_vertices = 0;
};

/// Steps one backend K times, querying at every epoch and checking
/// parity against `reference` (same spec, stepped in lockstep).
RunSummary RunBackend(server::VersionedBackend* backend,
                      const TetraMesh& mesh, const DeformerSpec& spec,
                      int steps, int queries_per_step) {
  RunSummary summary;

  // In-process reference: stale index on a private mesh copy advanced
  // by an identical deformer trajectory.
  TetraMesh reference_mesh = mesh;
  Octopus reference;
  reference.Build(reference_mesh);
  summary.surface_vertices = reference.surface_index().num_surface_vertices();
  engine::QueryEngine reference_engine;
  auto deformer = MakeDeformer(spec);
  if (!deformer.ok()) {
    std::fprintf(stderr, "deformer: %s\n",
                 deformer.status().ToString().c_str());
    std::exit(1);
  }
  deformer.Value()->Bind(reference_mesh);

  QueryGenerator gen(mesh);
  Rng rng(0xD1A);
  engine::QueryBatchResult out;
  engine::QueryBatchResult expected;
  for (int step = 0; step <= steps; ++step) {
    if (step > 0) {
      backend->AdvanceStep();
      deformer.Value()->ApplyStep(step, &reference_mesh);
    }
    const std::vector<AABB> queries =
        gen.MakeQueries(&rng, queries_per_step, 0.0011, 0.0018);

    PhaseStats stats;
    Timer wall;
    backend->Execute(queries, &out, &stats);
    StepRecord record;
    record.wall_seconds = wall.ElapsedSeconds();
    record.step = static_cast<uint32_t>(step);
    record.probe_nanos = stats.probe_nanos;
    record.walk_nanos = stats.walk_nanos;
    record.crawl_nanos = stats.crawl_nanos;
    record.merge_nanos = stats.merge_nanos;
    record.walk_invocations = stats.walk_invocations;
    record.walk_vertices = stats.walk_vertices;
    record.crawl_edges = stats.crawl_edges;
    record.result_vertices = stats.result_vertices;
    record.scan_queries = stats.scan_queries;
    record.page_accesses = stats.page_io.PageAccesses();
    record.lease_hits = stats.page_io.lease_hits;
    record.pages_leased = stats.page_io.pages_leased;
    record.pages_distinct = stats.page_io.pages_distinct;
    record.pages_rewritten = backend->last_step_pages_rewritten();
    summary.probe_position_reads += stats.probe_position_reads;
    // Warm-regime accounting: step 0 is the cold batch that faults the
    // whole snapshot in from disk; the steady-state comparison starts
    // once the pool is populated.
    if (step > 0) summary.total_wall_seconds += record.wall_seconds;

    reference.ResetStats();
    reference_engine.Execute(reference, reference_mesh, queries,
                             &expected);
    record.parity_ok = out.epoch.step == static_cast<uint32_t>(step);
    for (size_t q = 0; q < queries.size() && record.parity_ok; ++q) {
      record.parity_ok = out.per_query[q] == expected.per_query[q];
    }
    summary.parity_ok &= record.parity_ok;
    summary.steps.push_back(record);
  }
  return summary;
}

}  // namespace

int main() {
  namespace bench = octopus::bench;
  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(24);
  constexpr int kQueriesPerStep = 48;
  constexpr int kThreads = 1;

  auto mesh_result = MakeNeuroMesh(0, 0.4 * scale);
  if (!mesh_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 mesh_result.status().ToString().c_str());
    return 1;
  }
  const TetraMesh& mesh = mesh_result.Value();
  std::printf("OCTOPUS dynamic serving — %zu vertices, %d steps, %d "
              "queries/step\n\n",
              mesh.num_vertices(), steps, kQueriesPerStep);

  // Sustained drift (plasticity) is the adversarial case for a stale
  // index: displacement accumulates ~sqrt(t), so the step-0 surface
  // geometry keeps degrading as a probe-start oracle.
  DeformerSpec spec;
  spec.kind = DeformerKind::kPlasticity;
  spec.amplitude = 0.25f * EstimateMeanEdgeLength(mesh);
  spec.seed = 99;

  const std::string snapshot_path = "bench_dynamic_tmp.oct2";
  const Status saved =
      SaveSnapshot(mesh, snapshot_path,
                   storage::SnapshotOptions{.page_bytes = 4096});
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
    return 1;
  }
  // Warm-pool configuration: the pool covers the snapshot, so after the
  // first batch every access is a pool hit or (with leases) free — this
  // is the regime where the paged path should track in-memory.
  auto snapshot_header = storage::ReadSnapshotHeader(snapshot_path);
  if (!snapshot_header.ok()) {
    std::fprintf(stderr, "header: %s\n",
                 snapshot_header.status().ToString().c_str());
    return 1;
  }
  const size_t pool_bytes =
      snapshot_header.Value().FileBytes() + 16 * 4096;

  bench::JsonWriter json(scale, steps);
  Table table("bench_dynamic — query work vs simulation step");
  table.SetHeader({"backend", "step", "queries/s", "walks", "walk verts",
                   "crawl edges", "page accesses", "pages rewritten",
                   "parity"});
  bool all_parity_ok = true;

  double backend_seconds[2] = {0.0, 0.0};  // [in-memory, paged]
  // Run totals of the traversal counters, per backend.
  struct TraversalTotals {
    uint64_t walk_invocations = 0;
    uint64_t walk_vertices = 0;
    uint64_t crawl_edges = 0;
    uint64_t result_vertices = 0;
    uint64_t scan_queries = 0;  ///< boxes the Eq. 6 route sent to the scan
  };
  TraversalTotals traversal[2];
  uint64_t total_page_accesses = 0;
  uint64_t total_pages_distinct = 0;
  uint64_t total_lease_hits = 0;
  uint64_t total_probe_position_reads = 0;
  size_t surface_vertices = 0;
  for (const bool paged : {false, true}) {
    std::unique_ptr<server::VersionedBackend> backend;
    if (paged) {
      auto opened = server::VersionedBackend::OpenSnapshot(
          snapshot_path, pool_bytes, kThreads);
      if (!opened.ok()) {
        std::fprintf(stderr, "open snapshot: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      backend = opened.MoveValue();
    } else {
      backend = server::VersionedBackend::FromMesh(mesh, kThreads);
    }
    const Status bound = backend->BindDeformer(spec);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind: %s\n", bound.ToString().c_str());
      return 1;
    }

    const RunSummary summary =
        RunBackend(backend.get(), mesh, spec, steps, kQueriesPerStep);
    all_parity_ok &= summary.parity_ok;
    backend_seconds[paged ? 1 : 0] = summary.total_wall_seconds;
    total_probe_position_reads += summary.probe_position_reads;
    surface_vertices = summary.surface_vertices;
    for (const StepRecord& r : summary.steps) {
      TraversalTotals& totals = traversal[paged ? 1 : 0];
      totals.walk_invocations += r.walk_invocations;
      totals.walk_vertices += r.walk_vertices;
      totals.crawl_edges += r.crawl_edges;
      totals.result_vertices += r.result_vertices;
      totals.scan_queries += r.scan_queries;
    }
    if (paged) {
      for (const StepRecord& r : summary.steps) {
        total_page_accesses += r.page_accesses;
        total_pages_distinct += r.pages_distinct;
        total_lease_hits += r.lease_hits;
      }
    }
    const char* name = paged ? "paged" : "in-memory";
    for (const StepRecord& r : summary.steps) {
      // Table: first, mid and last step only (the JSON has every step).
      if (r.step == 0 || r.step == static_cast<uint32_t>(steps) ||
          r.step == static_cast<uint32_t>(steps) / 2) {
        const double qps =
            r.wall_seconds > 0 ? kQueriesPerStep / r.wall_seconds : 0.0;
        table.AddRow({name, Table::Count(r.step), Table::Num(qps, 0),
                      Table::Count(r.walk_invocations),
                      Table::Count(r.walk_vertices),
                      Table::Count(r.crawl_edges),
                      Table::Count(r.page_accesses),
                      Table::Count(r.pages_rewritten),
                      r.parity_ok ? "ok" : "MISMATCH"});
      }
      json.BeginObject();
      json.Field("name", std::string("dynamic_") + name);
      json.Field("paged", static_cast<int64_t>(paged ? 1 : 0));
      json.Field("step", static_cast<int64_t>(r.step));
      json.Field("queries_per_step",
                 static_cast<int64_t>(kQueriesPerStep));
      json.Field("wall_seconds", r.wall_seconds);
      json.Field("queries_per_sec",
                 r.wall_seconds > 0 ? kQueriesPerStep / r.wall_seconds
                                    : 0.0);
      // Per-phase split of the step's batch (merge = batch-end stats
      // and context merging — the phase the flight recorder also
      // reports per request).
      json.Field("probe_seconds",
                 static_cast<double>(r.probe_nanos) / 1e9);
      json.Field("walk_seconds",
                 static_cast<double>(r.walk_nanos) / 1e9);
      json.Field("crawl_seconds",
                 static_cast<double>(r.crawl_nanos) / 1e9);
      json.Field("merge_seconds",
                 static_cast<double>(r.merge_nanos) / 1e9);
      json.Field("walk_invocations",
                 static_cast<int64_t>(r.walk_invocations));
      json.Field("walk_vertices",
                 static_cast<int64_t>(r.walk_vertices));
      json.Field("crawl_edges", static_cast<int64_t>(r.crawl_edges));
      json.Field("result_vertices",
                 static_cast<int64_t>(r.result_vertices));
      json.Field("scan_queries", static_cast<int64_t>(r.scan_queries));
      json.Field("page_accesses",
                 static_cast<int64_t>(r.page_accesses));
      json.Field("lease_hits", static_cast<int64_t>(r.lease_hits));
      json.Field("pages_leased", static_cast<int64_t>(r.pages_leased));
      json.Field("pages_distinct",
                 static_cast<int64_t>(r.pages_distinct));
      json.Field("pages_rewritten",
                 static_cast<int64_t>(r.pages_rewritten));
      json.Field("parity_ok",
                 static_cast<int64_t>(r.parity_ok ? 1 : 0));
      json.EndObject();
    }
  }

  // Headline lease-economy numbers: how far the warm-pool paged path is
  // from in-memory (wall clock), and how close priced page accesses are
  // to exact distinct-pages-touched. The CI perf smoke reads this
  // record from the committed JSON.
  const double slowdown = backend_seconds[0] > 0
                              ? backend_seconds[1] / backend_seconds[0]
                              : 0.0;
  const double access_ratio =
      total_pages_distinct > 0
          ? static_cast<double>(total_page_accesses) /
                static_cast<double>(total_pages_distinct)
          : 0.0;
  json.BeginObject();
  json.Field("name", std::string("dynamic_summary"));
  json.Field("in_memory_warm_seconds", backend_seconds[0]);
  json.Field("paged_warm_seconds", backend_seconds[1]);
  json.Field("paged_over_in_memory_warm", slowdown);
  json.Field("page_accesses", static_cast<int64_t>(total_page_accesses));
  json.Field("pages_distinct",
             static_cast<int64_t>(total_pages_distinct));
  json.Field("lease_hits", static_cast<int64_t>(total_lease_hits));
  json.Field("access_over_distinct", access_ratio);
  // Fused-probe read accounting: every batch (both backends, every
  // step) gathers ceil(surface / stride) positions once per shard,
  // however many queries it holds. Deterministic; the CI perf smoke
  // checks the identity exactly.
  json.Field("batches", static_cast<int64_t>(2 * (steps + 1)));
  json.Field("shards", static_cast<int64_t>(
                           std::min(kThreads, kQueriesPerStep)));
  json.Field("surface_vertices", static_cast<int64_t>(surface_vertices));
  json.Field("probe_stride",
             static_cast<int64_t>(ProbeStride(
                 OctopusOptions{}.surface_sample_fraction)));
  json.Field("probe_position_reads",
             static_cast<int64_t>(total_probe_position_reads));
  // Traversal totals and scan-routed queries per backend. Deterministic
  // for a given scale, step
  // count and query count (any thread count); the CI perf smoke requires
  // them to equal the committed baseline for these settings exactly.
  json.Field("scale", scale);
  json.Field("steps", static_cast<int64_t>(steps));
  json.Field("queries_per_step", static_cast<int64_t>(kQueriesPerStep));
  for (const bool paged : {false, true}) {
    const std::string prefix = paged ? "paged_" : "in_memory_";
    const TraversalTotals& totals = traversal[paged ? 1 : 0];
    json.Field(prefix + "walk_invocations",
               static_cast<int64_t>(totals.walk_invocations));
    json.Field(prefix + "walk_vertices",
               static_cast<int64_t>(totals.walk_vertices));
    json.Field(prefix + "crawl_edges",
               static_cast<int64_t>(totals.crawl_edges));
    json.Field(prefix + "result_vertices",
               static_cast<int64_t>(totals.result_vertices));
    json.Field(prefix + "scan_queries",
               static_cast<int64_t>(totals.scan_queries));
  }
  json.EndObject();

  table.Print();
  std::printf(
      "\nLease economy (paged, warm pool): %.2fx in-memory wall clock; "
      "%llu page accesses\nfor %llu distinct pages (%.2fx); %llu reads "
      "served from held leases.\n",
      slowdown,
      static_cast<unsigned long long>(total_page_accesses),
      static_cast<unsigned long long>(total_pages_distinct),
      access_ratio,
      static_cast<unsigned long long>(total_lease_hits));
  std::printf(
      "\nStale-start drift: the index is built once at step 0 and never "
      "maintained; walk\ninvocations/vertices grow as accumulated drift "
      "degrades the probe's start quality,\nwhile results stay exact "
      "(parity vs the in-process engine at every epoch).\nPages "
      "rewritten = OCT2 delta pages per step (position pages only; "
      "adjacency is never\nrewritten).\n");

  std::remove(snapshot_path.c_str());
  if (!json.WriteTo("BENCH_dynamic.json")) {
    std::fprintf(stderr, "failed to write BENCH_dynamic.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_dynamic.json (%zu records)\n",
              json.num_objects());
  return all_parity_ok ? 0 : 1;
}
