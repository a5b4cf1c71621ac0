// Copyright 2026 The OCTOPUS Reproduction Authors
// The OCTOPUS query execution strategy (paper Sec. IV, Algorithm 1):
// surface probe -> (directed walk if needed) -> crawling. No maintenance
// on deformation; incremental surface-index maintenance on restructuring.
//
// Every query runs in a batch (a single `RangeQuery` is a batch of one)
// through one core, `ExecuteOctopusBatch`, templated over
// `storage::MeshAccessor`, so the identical algorithm executes over the
// resident mesh and over a paged out-of-core snapshot (see
// octopus/paged_executor.h). The batch runs in Hilbert order of its
// boxes' centres (`OrderBatch`), so consecutive crawls touch nearby
// vertices and reuse the adjacency and pool pages the previous one
// brought in; each answer still lands in its request slot. Each shard
// first splits its boxes by the served Eq. 6 planner
// (octopus/scan_route.h): boxes at or above the break-even are answered
// by the tiled scan (index/tiled_scan.h), in id order. The rest run the
// paper's Algorithm 1: the shard reads the surface once and probes all
// of them against that copy (octopus/surface_probe.h); walk and crawl
// then run per query.
//
// Thread-safety invariant (engine layer): after `Build`, the index object
// (`options_`, `surface_index_`, `route_`) is read-only during query
// execution. All mutable query state — visited marks, walk heap, probe
// and scan scratch, phase stats — lives in per-thread
// `engine::ExecutionContext`s. During a parallel `RangeQueryBatch`, each
// shard accumulates stats into its own context-local `PhaseStats`; the
// locals are merged into the index-level aggregate `stats_` on the
// calling thread after the pool joins, in shard order — never shared
// mutation while queries are in flight. Calls
// on one executor (`RangeQuery` included) reuse its contexts, so they
// must not overlap; parallelism comes from sharding one batch.
#ifndef OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_
#define OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.h"
#include "engine/execution_context.h"
#include "engine/thread_pool.h"
#include "index/spatial_index.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "octopus/phase_stats.h"
#include "octopus/scan_route.h"
#include "octopus/surface_index.h"
#include "octopus/surface_probe.h"

namespace octopus {

/// \brief Configuration of the OCTOPUS executor.
struct OctopusOptions {
  /// Fraction of the surface probed per query (Sec. IV-H2 surface
  /// approximation): probing every k-th surface vertex realizes the
  /// paper's "sample of equidistant vertices on the surface". 1.0 = exact
  /// (probe everything); smaller values trade result accuracy for probe
  /// time.
  double surface_sample_fraction = 1.0;
  /// Keep the face registry so restructuring deltas can be applied
  /// incrementally via `OnRestructure`.
  bool support_restructuring = false;
  /// Visited-tracking strategy of the crawl: the default epoch array is
  /// fastest but holds O(V) scratch; `kHashSet` makes the crawl scratch
  /// proportional to the result size, which is the memory behaviour the
  /// paper reports in Fig. 10(b).
  VisitedMode visited_mode = VisitedMode::kEpochArray;
  /// Serve the Eq. 6 planner (octopus/scan_route.h): boxes whose
  /// estimated selectivity reaches the break-even are answered by the
  /// tiled scan. false = the paper's pure OCTOPUS, every box probed,
  /// walked and crawled (what the figure benches measure).
  bool route_to_scan = true;
};

/// Algorithm 1 over any mesh accessor for a shard's OCTOPUS-routed
/// boxes: fused surface probe (with optional equidistant sampling) ->
/// directed walk fallback -> crawl, per query, in the order of `boxes`.
/// The surface is gathered even when `boxes` is empty, so every shard
/// of a batch reads it exactly once.
template <storage::MeshAccessor Accessor>
void CrawlOctopusBoxes(Accessor& mesh, const SurfaceIndex& surface_index,
                       const OctopusOptions& options,
                       std::span<const AABB> boxes,
                       std::span<const uint32_t> slots,
                       engine::ExecutionContext* context,
                       std::vector<VertexId>* out) {
  PhaseStats* stats = &context->stats;
  SurfaceProbe& probe = context->probe;

  // --- Phase 1: surface probe (Sec. IV-C), fused across the shard ---
  // The shard reads the surface positions once, in probe order (every
  // `stride`-th vertex under the Sec. IV-H2 approximation), then tests
  // each tile of boxes against that copy. `probe_nanos` is the shard's
  // fused-pass time: the gather plus every tile's probe.
  Timer timer;
  probe.Gather(mesh, surface_index.probe_order(),
               ProbeStride(options.surface_sample_fraction));
  stats->probe_position_reads += probe.size();
  stats->probe_nanos += timer.ElapsedNanos();

  for (size_t tile = 0; tile < boxes.size(); tile += kProbeTileBoxes) {
    const std::span<const AABB> tile_boxes = boxes.subspan(
        tile, std::min(kProbeTileBoxes, boxes.size() - tile));
    timer.Restart();
    probe.ProbeTile(tile_boxes);
    stats->probe_nanos += timer.ElapsedNanos();

    for (size_t b = 0; b < tile_boxes.size(); ++b) {
      const AABB& box = tile_boxes[b];
      std::vector<VertexId>* starts = probe.starts(b);
      ++stats->queries;
      stats->probed_vertices += probe.size();

      // --- Phase 2: directed walk (Sec. IV-D), only if the probe was
      // dry; it starts from the closest probed vertex ---
      if (starts->empty()) {
        timer.Restart();
        ++stats->walk_invocations;
        const WalkResult walk =
            DirectedWalk(mesh, box, probe.closest(b),
                         &context->crawler.marks(), &context->walk_heap);
        stats->walk_vertices += walk.vertices_visited;
        stats->walk_nanos += timer.ElapsedNanos();
        if (!walk.ok()) {
          continue;  // query does not intersect the mesh: empty result
        }
        starts->push_back(walk.found);
      }

      // --- Phase 3: crawling (Sec. IV-B) ---
      timer.Restart();
      const CrawlStats crawl =
          context->crawler.Crawl(mesh, box, *starts, &out[slots[tile + b]]);
      stats->crawl_edges += crawl.edges_traversed;
      stats->result_vertices += crawl.vertices_inside;
      stats->crawl_nanos += timer.ElapsedNanos();
    }
  }
}

/// One shard's share of a batch over any mesh accessor: `route` splits
/// `boxes` (keeping their order on each side); the OCTOPUS side runs
/// `CrawlOctopusBoxes`, the scan side the tiled scan. Query `q`'s result
/// is appended to `out[slots[q]]`; stats accumulate into
/// `context->stats`. Re-entrant: concurrent shards are safe as long as
/// each uses its own context, accessor and slots (the backing store,
/// surface index and route are only read).
template <storage::MeshAccessor Accessor>
void ExecuteOctopusShard(Accessor& mesh, const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         const ScanRoute& route,
                         std::span<const AABB> boxes,
                         std::span<const uint32_t> slots,
                         engine::ExecutionContext* context,
                         std::vector<VertexId>* out) {
  engine::RoutedBoxes& crawl_side = context->crawl_side;
  engine::RoutedBoxes& scan_side = context->scan_side;
  crawl_side.clear();
  scan_side.clear();
  for (size_t q = 0; q < boxes.size(); ++q) {
    (route.ToScan(boxes[q]) ? scan_side : crawl_side).Add(boxes[q],
                                                          slots[q]);
  }
  CrawlOctopusBoxes(mesh, surface_index, options, crawl_side.boxes,
                    crawl_side.slots, context, out);
  if (scan_side.boxes.empty()) return;
  const Timer timer;
  const ScanCounts scan =
      context->scan.Run(mesh, scan_side.boxes, scan_side.slots, out);
  PhaseStats* stats = &context->stats;
  stats->queries += scan_side.boxes.size();
  stats->scan_queries += scan_side.boxes.size();
  stats->scan_vertices_tested += scan.vertices_tested;
  stats->scan_blocks_skipped += scan.blocks_skipped;
  stats->result_vertices += scan.results;
  stats->scan_nanos += timer.ElapsedNanos();
}

/// Fills `order` with the execution order of `boxes`: ascending 3-D
/// Hilbert key (10 bits per axis) of each box's centre, normalised to
/// the bounds of the batch's finite centres; ties break by the box
/// coordinates (min, then max, in IEEE total order) and then by input
/// index, so the order depends only on the set of boxes, not on their
/// arrival order. A box whose centre is not finite is left out of the
/// bounds and sorts after every other.
void OrderBatch(std::span<const AABB> boxes, engine::BatchOrder* order);

/// Batch core shared by every OCTOPUS executor (`Octopus`, `HexOctopus`,
/// `PagedOctopus`, the server's `VersionedBackend`): resets `out`, puts
/// the batch in `OrderBatch` order, clamps the shard count to min(pool
/// width, batch size), has each shard route its boxes by `route` (an
/// unbuilt route sends every box to OCTOPUS), runs each shard's contiguous range of that order
/// on its own context (grown via `contexts->Ensure` on the calling
/// thread before forking), and merges per-shard stats into the pool's
/// aggregate in deterministic shard order after the pool joins. Query
/// `i`'s ids land in `out->per_query[i]`. `pool` may be null
/// (sequential). `make_accessor(context)` supplies the shard's mesh
/// accessor — by value for the free in-memory view, by reference for a
/// context-owned paged accessor. Per-query results are independent of
/// the shard count and of the order the boxes arrive in.
template <typename MakeAccessor>
void ExecuteOctopusBatch(const MakeAccessor& make_accessor,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         const ScanRoute& route,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts) {
  out->Reset(boxes.size());
  engine::BatchOrder* order = contexts->order();
  OrderBatch(boxes, order);
  const std::span<const AABB> sorted = order->boxes;
  const std::span<const uint32_t> slots = order->slots;
  const int shards =
      pool == nullptr
          ? 1
          : static_cast<int>(
                std::min<size_t>(pool->threads(),
                                 std::max<size_t>(boxes.size(), 1)));
  // Contexts are created/sized on the calling thread, before forking.
  contexts->Ensure(shards);

  auto run_shard = [&](int shard) {
    // The pool always invokes one call per pool thread; threads beyond
    // the (batch-size-clamped) shard count have no work.
    if (shard >= shards) return;
    // Contiguous sharding of the sorted order: shard s owns positions
    // [s*n/T, (s+1)*n/T).
    const size_t begin = sorted.size() * shard / shards;
    const size_t end = sorted.size() * (shard + 1) / shards;
    engine::ExecutionContext* context = contexts->context(shard);
    decltype(auto) accessor = make_accessor(context);
    if (begin < end) {
      ExecuteOctopusShard(accessor, surface_index, options, route,
                          sorted.subspan(begin, end - begin),
                          slots.subspan(begin, end - begin), context,
                          out->per_query.data());
    }
    // Batch-scoped leases (paged accessors) are released before the
    // shard retires: deterministic counters, and an idle accessor holds
    // no pool resources between batches.
    if constexpr (requires { accessor.EndBatch(); }) {
      accessor.EndBatch();
    }
  };

  if (shards == 1) {
    run_shard(0);
  } else {
    pool->Run(run_shard);
  }

  // Deterministic merge at batch end, on the calling thread: counts are
  // identical for any thread count (timings naturally vary).
  contexts->MergeStats(shards);
}

/// Resident-mesh wrapper over the in-memory accessor.
void ExecuteOctopusBatch(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         const ScanRoute& route,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts);

/// \brief OCTOPUS: range-query execution for unpredictably deforming
/// meshes.
///
/// Implements `SpatialIndex`, so benches compare it directly against the
/// baselines. `BeforeQueries` is a no-op — that is the entire point: mesh
/// deformation requires no index maintenance.
class Octopus : public SpatialIndex {
 public:
  explicit Octopus(OctopusOptions options = {});

  std::string Name() const override { return "OCTOPUS"; }

  /// Builds the surface index (one-time preprocessing; paper reports 62 s
  /// for the 33 GB mesh) and, under `route_to_scan`, the Eq. 6 route
  /// from the same step-0 mesh. Time it with a Timer if needed for
  /// reports.
  void Build(const TetraMesh& mesh) override;

  /// No-op: deformation never invalidates OCTOPUS's structures.
  void BeforeQueries(const TetraMesh& mesh) override { (void)mesh; }

  /// A batch of one, appended to `out`. Like every batch it mutates
  /// the executor's contexts and stats, so it is not safe to call
  /// concurrently (see the header invariant).
  void RangeQuery(const TetraMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const override;

  /// The parallel path: shards `boxes` contiguously across `pool` (or
  /// runs sequentially when `pool` is null), one execution context per
  /// shard. Per-query results are independent of the thread count;
  /// per-shard stats merge into `stats()` in deterministic shard order.
  void RangeQueryBatch(const TetraMesh& mesh, std::span<const AABB> boxes,
                       engine::QueryBatchResult* out,
                       engine::ThreadPool* pool = nullptr) const override;

  /// Surface index + route histogram + per-context scratch (paper
  /// Fig. 10(b) accounting). Honest accounting: the sum covers EVERY
  /// allocated execution context, so after a T-thread batch the crawl-scratch term
  /// is T× the sequential one (that memory is really held). The paper's
  /// figures correspond to the default single-threaded configuration.
  size_t FootprintBytes() const override;

  /// Incremental maintenance after a mesh restructuring step. Requires
  /// `support_restructuring` in the options.
  void OnRestructure(const TetraMesh& mesh, const RestructureDelta& delta);

  const SurfaceIndex& surface_index() const { return surface_index_; }
  const ScanRoute& route() const { return route_; }
  const PhaseStats& stats() const { return contexts_.stats(); }
  void ResetStats() const { contexts_.ResetStats(); }

 private:
  OctopusOptions options_;
  SurfaceIndex surface_index_;
  ScanRoute route_;
  // Per-shard execution contexts (lazily created, reused across batches)
  // and the merged aggregate. `mutable`: queries are logically const —
  // they never change the index structure — but need scratch + stats.
  mutable engine::ContextPool contexts_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_
