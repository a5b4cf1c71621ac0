// Copyright 2026 The OCTOPUS Reproduction Authors
// Per-thread mutable query-execution state. All scratch that the seed
// kept inside the index objects (visited marks, walk heap, probe
// scratch, phase stats) lives here instead, making the index objects
// read-only during query execution and a batch embarrassingly parallel:
// one context per shard, zero shared mutation.
#ifndef OCTOPUS_ENGINE_EXECUTION_CONTEXT_H_
#define OCTOPUS_ENGINE_EXECUTION_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aabb.h"
#include "common/timer.h"
#include "index/tiled_scan.h"
#include "mesh/types.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "octopus/phase_stats.h"
#include "octopus/surface_probe.h"
#include "storage/paged_mesh.h"

namespace octopus::engine {

/// One side of a shard's boxes under the Eq. 6 route, in execution
/// order, with each box's result slot.
struct RoutedBoxes {
  std::vector<AABB> boxes;
  std::vector<uint32_t> slots;

  void Add(const AABB& box, uint32_t slot) {
    boxes.push_back(box);
    slots.push_back(slot);
  }
  void clear() {
    boxes.clear();
    slots.clear();
  }
  size_t ScratchBytes() const {
    return boxes.capacity() * sizeof(AABB) +
           slots.capacity() * sizeof(uint32_t);
  }
};

/// \brief Everything one executing thread needs to run OCTOPUS queries:
/// a crawler (whose visited marks are the context's one mark set, used
/// by the directed walk too), the walk's frontier heap, the fused
/// surface probe's SoA positions and per-tile starts, the shard's boxes
/// split by the Eq. 6 route and the tiled scan that answers the scan
/// side, a local `PhaseStats` accumulator, and — for out-of-core
/// execution — the thread's paged mesh accessor. Scratch is reused
/// across queries, so a warmed-up context allocates nothing per query.
///
/// Contexts are never shared between concurrently executing queries.
/// After a parallel batch, per-context stats are merged into the
/// index-level aggregate in deterministic shard order.
struct ExecutionContext {
  Crawler crawler;
  std::vector<WalkFrontier> walk_heap;
  SurfaceProbe probe;
  RoutedBoxes crawl_side;
  RoutedBoxes scan_side;
  TiledScan scan;
  PhaseStats stats;
  /// The per-thread out-of-core read handle, created (and rebound) by
  /// `PagedOctopus` on first use of this context and reused across
  /// batches. Null while queries run over the in-memory accessor.
  std::unique_ptr<storage::PagedMeshAccessor> paged_accessor;

  ExecutionContext() = default;
  explicit ExecutionContext(VisitedMode mode) : crawler(mode) {}

  /// Grows the visited marks to cover `num_vertices`.
  void EnsureSize(size_t num_vertices) { crawler.EnsureSize(num_vertices); }

  /// Bytes of scratch held by this context (footprint accounting).
  size_t ScratchBytes() const {
    return crawler.ScratchBytes() +
           walk_heap.capacity() * sizeof(WalkFrontier) +
           probe.ScratchBytes() + crawl_side.ScratchBytes() +
           scan_side.ScratchBytes() + scan.ScratchBytes() +
           (paged_accessor ? paged_accessor->ScratchBytes() : 0);
  }
};

/// \brief A batch's execution order (`OrderBatch`,
/// octopus/query_executor.h): each input box's curve key, the input slots
/// in execution order, and the boxes permuted into that order. Written on
/// the calling thread before shards fork, only read while they run.
struct BatchOrder {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> slots;
  std::vector<AABB> boxes;

  size_t ScratchBytes() const {
    return keys.capacity() * sizeof(uint64_t) +
           slots.capacity() * sizeof(uint32_t) +
           boxes.capacity() * sizeof(AABB);
  }
};

/// \brief Lazily grown set of per-shard contexts, the batch-order
/// scratch and the merged stats aggregate — the executor-side state
/// shared by `Octopus`, `HexOctopus` and `PagedOctopus`.
///
/// `Ensure` must run on the calling thread before shards fork; after a
/// batch, `MergeStats` folds per-context stats into the aggregate in
/// shard order (deterministic counts for any thread count) and resets
/// the locals, upholding the no-shared-mutation-in-flight invariant.
class ContextPool {
 public:
  ContextPool() = default;
  explicit ContextPool(VisitedMode mode) : mode_(mode) {}

  /// Sets the graph size contexts must cover; resizes existing contexts.
  void set_num_vertices(size_t n) {
    num_vertices_ = n;
    for (const auto& context : contexts_) {
      if (context) context->EnsureSize(n);
    }
  }

  /// Guarantees contexts `[0, count)` exist and are sized. Calling
  /// thread only — never concurrently with executing shards.
  void Ensure(size_t count) {
    if (contexts_.size() < count) contexts_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      if (!contexts_[i]) {
        contexts_[i] = std::make_unique<ExecutionContext>(mode_);
      }
      contexts_[i]->EnsureSize(num_vertices_);
    }
  }

  ExecutionContext* context(size_t i) { return contexts_[i].get(); }

  /// The order scratch, reused across batches. Calling thread only.
  BatchOrder* order() { return &order_; }

  /// Folds contexts `[0, shards)` into the aggregate, in shard order,
  /// and resets their local stats. The fold itself is the batch's merge
  /// phase; its wall clock lands in the aggregate's `merge_nanos` (the
  /// one phase timer no context can hold — it runs after the contexts
  /// retire).
  void MergeStats(size_t shards) {
    Timer timer;
    for (size_t i = 0; i < shards; ++i) {
      stats_.Merge(contexts_[i]->stats);
      contexts_[i]->stats.Reset();
    }
    stats_.merge_nanos += timer.ElapsedNanos();
  }

  const PhaseStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Scratch across every allocated context plus the order scratch
  /// (honest accounting: after a T-thread batch this is T crawlers' worth
  /// of memory, really held).
  size_t ScratchBytes() const {
    size_t bytes = order_.ScratchBytes();
    for (const auto& context : contexts_) {
      if (context) bytes += context->ScratchBytes();
    }
    return bytes;
  }

 private:
  VisitedMode mode_ = VisitedMode::kEpochArray;
  size_t num_vertices_ = 0;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  BatchOrder order_;
  PhaseStats stats_;
};

}  // namespace octopus::engine

#endif  // OCTOPUS_ENGINE_EXECUTION_CONTEXT_H_
