// Copyright 2026 The OCTOPUS Reproduction Authors
// Per-phase statistics of the OCTOPUS executor (probe / walk / crawl).
// Lives in its own header so the engine layer's `ExecutionContext` can
// hold a thread-local copy without pulling in the executor itself.
#ifndef OCTOPUS_OCTOPUS_PHASE_STATS_H_
#define OCTOPUS_OCTOPUS_PHASE_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "storage/page.h"

namespace octopus {

/// \brief Accumulated per-phase statistics across queries.
///
/// Thread-safety invariant: a `PhaseStats` instance is never shared
/// between concurrently executing queries. During a parallel batch each
/// execution context accumulates into its own local instance; the locals
/// are merged (`Merge`) into the index-level aggregate on the calling
/// thread after all workers have joined, in deterministic shard order.
struct PhaseStats {
  int64_t probe_nanos = 0;
  int64_t walk_nanos = 0;
  int64_t crawl_nanos = 0;
  /// The tiled scan of the boxes the Eq. 6 route sends past OCTOPUS
  /// (index/tiled_scan.h).
  int64_t scan_nanos = 0;
  /// Batch-end fold of per-context stats into the aggregate (the merge
  /// phase of a sharded batch). Timed on the calling thread by
  /// `engine::ContextPool::MergeStats`, so it lands in the aggregate —
  /// not in any context-local instance — and is zero for executors
  /// that never fold (`OctopusCon`).
  int64_t merge_nanos = 0;
  size_t queries = 0;
  size_t probed_vertices = 0;   ///< surface vertices inspected
  /// Surface positions physically read by the fused probe: one gather
  /// of ceil(surface / stride) per shard per batch, however many queries
  /// the shard tests against it (`probed_vertices` counts per query).
  /// In-process only: not part of the wire stats.
  size_t probe_position_reads = 0;
  size_t walk_invocations = 0;  ///< queries that needed a directed walk
  size_t walk_vertices = 0;     ///< vertices expanded during walks
  size_t crawl_edges = 0;       ///< adjacency entries inspected
  size_t result_vertices = 0;
  /// Queries answered by the tiled scan instead of probe, walk and
  /// crawl (counted in `queries` too; their answers in
  /// `result_vertices`). In-process only, like the scan counters below.
  size_t scan_queries = 0;
  size_t scan_vertices_tested = 0;  ///< positions tested against a box
  /// (box, vertex block) pairs skipped because the block's bounding box
  /// misses the box.
  size_t scan_blocks_skipped = 0;
  /// Staleness of the spatial structures when these queries ran:
  /// simulation steps advanced since the surface index was built (the
  /// index is never rebuilt on deformation — the paper's point — so
  /// this is the epoch step of a versioned backend, 0 for a static
  /// mesh). Merged as a max: the most-stale state the merged span
  /// executed against.
  size_t stale_steps = 0;
  /// Page-I/O counters of out-of-core execution (all zero when queries
  /// run over the in-memory accessor). Merged in shard order like every
  /// other counter; see `storage::PageIOStats` for the determinism
  /// caveat under a shared pool.
  storage::PageIOStats page_io;

  void Reset() { *this = PhaseStats{}; }

  /// Adds `other`'s counters into this instance (batch-end merge).
  void Merge(const PhaseStats& other) {
    probe_nanos += other.probe_nanos;
    walk_nanos += other.walk_nanos;
    crawl_nanos += other.crawl_nanos;
    scan_nanos += other.scan_nanos;
    merge_nanos += other.merge_nanos;
    queries += other.queries;
    probed_vertices += other.probed_vertices;
    probe_position_reads += other.probe_position_reads;
    walk_invocations += other.walk_invocations;
    walk_vertices += other.walk_vertices;
    crawl_edges += other.crawl_edges;
    result_vertices += other.result_vertices;
    scan_queries += other.scan_queries;
    scan_vertices_tested += other.scan_vertices_tested;
    scan_blocks_skipped += other.scan_blocks_skipped;
    stale_steps = std::max(stale_steps, other.stale_steps);
    page_io.Merge(other.page_io);
  }

  int64_t TotalNanos() const {
    return probe_nanos + walk_nanos + crawl_nanos + scan_nanos + merge_nanos;
  }
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PHASE_STATS_H_
