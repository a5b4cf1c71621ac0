// Copyright 2026 The OCTOPUS Reproduction Authors
// "Fig. 14" — the out-of-core extension of the paper's evaluation: the
// paper ran OCTOPUS on disk-resident Blue Brain meshes where the cost
// that matters is page accesses, and used the Hilbert data organization
// (Sec. IV-H1) to cluster the crawl's random adjacency accesses onto few
// pages. This bench reproduces that page-access curve on the paged OCT2
// engine:
//  (a) page misses per query vs buffer-pool size (fractions of the
//      snapshot), for three vertex layouts: shuffled (the arbitrary
//      arrival order of real meshes), generator order, and Hilbert;
//  (b) LRU vs clock eviction at a mid-size pool.
// Results also land in BENCH_outofcore.json for the cross-PR perf
// trajectory.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "mesh/generators/datasets.h"
#include "mesh/hilbert_layout.h"
#include "mesh/mesh_io.h"
#include "octopus/paged_executor.h"
#include "sim/workload.h"
#include "storage/snapshot.h"

namespace {

using octopus::AABB;
using octopus::PagedOctopus;
using octopus::Rng;
using octopus::Table;
using octopus::TetraMesh;
using octopus::VertexId;
using octopus::VertexPermutation;
namespace bench = octopus::bench;
namespace storage = octopus::storage;

constexpr size_t kPageBytes = 4096;

TetraMesh Shuffled(const TetraMesh& mesh, uint64_t seed) {
  VertexPermutation perm;
  perm.new_to_old.resize(mesh.num_vertices());
  std::iota(perm.new_to_old.begin(), perm.new_to_old.end(), 0u);
  Rng rng(seed);
  for (size_t i = perm.new_to_old.size(); i > 1; --i) {
    std::swap(perm.new_to_old[i - 1], perm.new_to_old[rng.NextBelow(i)]);
  }
  perm.old_to_new.resize(perm.new_to_old.size());
  for (size_t n = 0; n < perm.new_to_old.size(); ++n) {
    perm.old_to_new[perm.new_to_old[n]] = static_cast<VertexId>(n);
  }
  return octopus::ApplyPermutation(mesh, perm);
}

struct RunStats {
  storage::PageIOStats page_io;
  double seconds = 0.0;
  size_t results = 0;
  size_t pool_allocated = 0;
};

RunStats RunWorkload(const std::string& snapshot,
                     const std::vector<AABB>& queries, size_t pool_bytes,
                     storage::BufferManager::Eviction eviction) {
  PagedOctopus::Options options;
  options.pool.pool_bytes = pool_bytes;
  options.pool.eviction = eviction;
  auto octo = PagedOctopus::Open(snapshot, options);
  if (!octo.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 octo.status().ToString().c_str());
    std::exit(1);
  }
  octopus::engine::QueryBatchResult results;
  octopus::Timer timer;
  octo.Value()->RangeQueryBatch(queries, &results);
  RunStats run;
  run.seconds = timer.ElapsedSeconds();
  run.page_io = octo.Value()->stats().page_io;
  run.results = results.TotalResults();
  run.pool_allocated =
      octo.Value()->store().buffer_manager()->AllocatedBytes();
  return run;
}

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const int queries_per_pool = bench::StepsFromEnv(96);
  std::printf(
      "OCTOPUS reproduction — Fig. 14: out-of-core page accesses "
      "(scale %.3g, %d queries, %zu B pages)\n\n",
      scale, queries_per_pool, kPageBytes);

  auto r = octopus::MakeNeuroMesh(octopus::kNumNeuroLevels - 1, scale);
  if (!r.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const TetraMesh generator_order = r.MoveValue();
  const TetraMesh shuffled = Shuffled(generator_order, 0xF14);

  // The three layouts, snapshotted to disk. "original" is the mesh in
  // the arbitrary order real meshes arrive in (shuffled); "generator"
  // is our masked-grid generator's native, already fairly coherent
  // order; "hilbert" clusters the shuffled mesh by the curve — what the
  // paper's data organization step does to an arbitrary-order mesh.
  struct Layout {
    const char* name;
    std::string path;
  };
  const std::vector<Layout> layouts = {
      {"shuffled", "fig14_shuffled.oct2"},
      {"generator", "fig14_generator.oct2"},
      {"hilbert", "fig14_hilbert.oct2"},
  };
  {
    using octopus::SaveSnapshot;
    using storage::SnapshotLayout;
    using storage::SnapshotOptions;
    octopus::Status st = SaveSnapshot(
        shuffled, layouts[0].path,
        SnapshotOptions{.page_bytes = kPageBytes});
    if (st.ok()) {
      st = SaveSnapshot(generator_order, layouts[1].path,
                        SnapshotOptions{.page_bytes = kPageBytes});
    }
    if (st.ok()) {
      st = SaveSnapshot(shuffled, layouts[2].path,
                        SnapshotOptions{.page_bytes = kPageBytes,
                                        .layout =
                                            SnapshotLayout::kHilbert});
    }
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const auto header = storage::ReadSnapshotHeader(layouts[0].path);
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }
  const size_t snapshot_bytes = header.Value().FileBytes();
  std::printf("dataset: %zu vertices, snapshot %.1f MB (%llu pages)\n\n",
              generator_order.num_vertices(), snapshot_bytes / 1e6,
              static_cast<unsigned long long>(header.Value().num_pages));

  // One spatial workload for every layout and pool size (the boxes are
  // position-defined; all layouts hold the same positions).
  octopus::QueryGenerator gen(generator_order);
  Rng rng(0xF14F14);
  const std::vector<AABB> queries =
      gen.MakeQueries(&rng, queries_per_pool, 0.0005, 0.002);

  bench::JsonWriter json(scale, queries_per_pool);
  Table t("Fig. 14(a) — page misses/query vs pool size (LRU)");
  t.SetHeader({"Pool [% of snapshot]", "Pool [KB]", "shuffled",
               "generator", "hilbert", "hilbert saving vs shuffled"});

  for (const double frac : {0.02, 0.05, 0.125, 0.25, 0.5}) {
    const size_t pool_bytes = std::max<size_t>(
        2 * kPageBytes, static_cast<size_t>(snapshot_bytes * frac));
    std::vector<std::string> row = {
        Table::Num(frac * 100.0, 1), Table::Num(pool_bytes / 1024.0, 0)};
    double shuffled_mpq = 0.0;
    double hilbert_mpq = 0.0;
    for (const Layout& layout : layouts) {
      const RunStats run =
          RunWorkload(layout.path, queries, pool_bytes,
                      storage::BufferManager::Eviction::kLRU);
      const double mpq =
          static_cast<double>(run.page_io.page_misses) / queries.size();
      if (std::string(layout.name) == "shuffled") shuffled_mpq = mpq;
      if (std::string(layout.name) == "hilbert") hilbert_mpq = mpq;
      row.push_back(Table::Num(mpq, 1));

      json.BeginObject();
      json.Field("name", std::string("outofcore/") + layout.name);
      json.Field("layout", layout.name);
      json.Field("eviction", "lru");
      json.Field("pool_frac", frac);
      json.Field("scale", scale);
      json.Field("pool_bytes", static_cast<int64_t>(pool_bytes));
      json.Field("page_bytes", static_cast<int64_t>(kPageBytes));
      json.Field("snapshot_bytes", static_cast<int64_t>(snapshot_bytes));
      json.Field("queries", static_cast<int64_t>(queries.size()));
      json.Field("page_misses",
                 static_cast<int64_t>(run.page_io.page_misses));
      json.Field("page_hits", static_cast<int64_t>(run.page_io.page_hits));
      json.Field("page_evictions",
                 static_cast<int64_t>(run.page_io.page_evictions));
      json.Field("misses_per_query", mpq);
      json.Field("total_results", static_cast<int64_t>(run.results));
      json.Field("real_time_s", run.seconds);
      json.Field("pool_allocated_bytes",
                 static_cast<int64_t>(run.pool_allocated));
      json.EndObject();
    }
    row.push_back(
        Table::Num(100.0 * (shuffled_mpq - hilbert_mpq) /
                       (shuffled_mpq > 0.0 ? shuffled_mpq : 1.0),
                   1) +
        "%");
    t.AddRow(row);
  }
  t.Print();

  // (b) Eviction-policy comparison at a mid-size pool, Hilbert layout.
  {
    const size_t pool_bytes = std::max<size_t>(
        2 * kPageBytes, static_cast<size_t>(snapshot_bytes * 0.125));
    Table e("Fig. 14(b) — eviction policy at 12.5% pool (hilbert)");
    e.SetHeader({"Policy", "Misses/query", "Hit rate [%]", "Evictions"});
    for (const auto eviction :
         {storage::BufferManager::Eviction::kLRU,
          storage::BufferManager::Eviction::kClock}) {
      const RunStats run = RunWorkload(layouts[2].path, queries,
                                       pool_bytes, eviction);
      const double accesses =
          static_cast<double>(run.page_io.PageAccesses());
      e.AddRow({storage::EvictionName(eviction),
                Table::Num(static_cast<double>(run.page_io.page_misses) /
                               queries.size(),
                           1),
                Table::Num(100.0 * run.page_io.page_hits /
                               (accesses > 0.0 ? accesses : 1.0),
                           2),
                Table::Count(run.page_io.page_evictions)});
      json.BeginObject();
      json.Field("name", std::string("outofcore/eviction/") +
                             storage::EvictionName(eviction));
      json.Field("layout", "hilbert");
      json.Field("eviction", storage::EvictionName(eviction));
      json.Field("scale", scale);
      json.Field("pool_bytes", static_cast<int64_t>(pool_bytes));
      json.Field("queries", static_cast<int64_t>(queries.size()));
      json.Field("page_misses",
                 static_cast<int64_t>(run.page_io.page_misses));
      json.Field("page_hits", static_cast<int64_t>(run.page_io.page_hits));
      json.Field("page_evictions",
                 static_cast<int64_t>(run.page_io.page_evictions));
      json.Field("real_time_s", run.seconds);
      json.EndObject();
    }
    e.Print();
  }

  if (!json.WriteTo("BENCH_outofcore.json")) {
    std::fprintf(stderr, "failed to write BENCH_outofcore.json\n");
    return 1;
  }
  std::printf(
      "\nwrote BENCH_outofcore.json (%zu records)\n"
      "Expected shape: misses/query fall as the pool grows; the Hilbert "
      "layout needs markedly fewer\nmisses than the shuffled "
      "(arbitrary-order) layout at every pool size because the crawl's\n"
      "neighborhood accesses cluster onto few pages (paper Sec. IV-H1); "
      "the generator order sits\nbetween the two (our masked-grid "
      "generator already emits fairly coherent ids).\n",
      json.num_objects());
  return 0;
}
