// Copyright 2026 The OCTOPUS Reproduction Authors
// The out-of-core mesh view: a `PagedMeshStore` owns an open OCT2
// snapshot plus its buffer pool, and hands out per-thread
// `PagedMeshAccessor`s through which the query phases read positions and
// adjacency. Mirrors how production CFD codes (e.g. Code_Saturne's
// fvm/cs_io layers) keep mesh data behind a paged I/O layer rather than
// one flat in-memory vector — and, like them, keep a page mapped for the
// duration of a mesh walk instead of re-resolving it per scalar.
//
// Leased page references: an accessor may hold a small, bounded set of
// *leases* — long-lived pins acquired exclusively through the pool's
// non-blocking `TryPin`. A page leased once during a crawl is then read
// through a raw frame pointer (no mutex, no hash lookup, no memcpy for
// in-page neighbor runs) until the batch ends or the lease is revoked.
// The discipline that keeps the 2-page-pool-serves-any-thread-count
// guarantee intact:
//
//  * leases never block: `TryPin` failure (pool pressure) releases every
//    lease and degrades the accessor to the transient-pin path for the
//    rest of the batch;
//  * a thread blocks inside the pool only after releasing all leases —
//    except, at most, the one backing an outstanding zero-copy
//    `neighbors()` span, and zero-copy is enabled only under a per-shard
//    frame budget that keeps total span pins strictly below the frame
//    count, so blocked threads can never pin the whole pool;
//  * every lease is released at batch end (`EndBatch`), so counters are
//    deterministic and an idle accessor holds no pool resources.
//
// Epoch positions: a batch binds a per-batch position page table
// (`ResidentEpoch::pages()`, storage/delta_overlay.h) with one pointer
// per position page — the epoch's memory bytes, or null for the base
// snapshot. `position`, `ProbePosition` and `PrefetchPosition` read it
// directly; a spilled epoch was reloaded into memory before the batch,
// so no page of an epoch is ever read through the pool.
#ifndef OCTOPUS_STORAGE_PAGED_MESH_H_
#define OCTOPUS_STORAGE_PAGED_MESH_H_

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fast_div.h"
#include "common/status.h"
#include "common/vec3.h"
#include "mesh/types.h"
#include "storage/buffer_manager.h"
#include "storage/delta_overlay.h"
#include "storage/lru_table.h"
#include "storage/snapshot.h"

namespace octopus::storage {

/// \brief An open snapshot: header, eagerly loaded surface vertex list
/// (with base positions), and the shared buffer pool. Immutable after
/// `Open`; any number of accessors (one per thread) may read through it
/// concurrently.
class PagedMeshStore {
 public:
  static Result<std::unique_ptr<PagedMeshStore>> Open(
      const std::string& path, const BufferManager::Options& options);

  PagedMeshStore(const PagedMeshStore&) = delete;
  PagedMeshStore& operator=(const PagedMeshStore&) = delete;

  const SnapshotHeader& header() const { return header_; }
  size_t num_vertices() const { return header_.num_vertices; }
  SnapshotLayout layout() const {
    return static_cast<SnapshotLayout>(header_.layout);
  }

  /// The snapshot's surface vertex ids, ascending — the probe order the
  /// `SurfaceIndex` is built from. Loaded once at `Open` (a sequential
  /// read), deliberately not routed through the pool: it is part of the
  /// index, not of the crawled data.
  const std::vector<VertexId>& surface_vertices() const {
    return surface_vertices_;
  }

  /// Base-snapshot positions of the surface vertices, aligned with
  /// `surface_vertices()` (== the probe order). Loaded once at `Open`
  /// alongside the id list and priced the same way: the surface probe is
  /// index-side work, so `ProbePosition` serves undeformed positions
  /// from here at memory speed — only the epoch's (deformed) pages
  /// cost page accesses, which keeps a query's page-access count near
  /// the distinct pages its walk and crawl actually touch.
  const std::vector<Vec3>& surface_positions() const {
    return surface_positions_;
  }

  BufferManager* buffer_manager() const { return buffer_.get(); }

  /// Snapshot bytes on disk.
  size_t FileBytes() const { return header_.FileBytes(); }

  /// Bytes of index-side data held resident by the store itself (the
  /// surface id list and its base positions) — counted into executor
  /// footprints alongside the surface hash table.
  size_t ResidentBytes() const {
    return surface_vertices_.capacity() * sizeof(VertexId) +
           surface_positions_.capacity() * sizeof(Vec3);
  }

 private:
  PagedMeshStore(SnapshotHeader header, std::vector<VertexId> surface,
                 std::vector<Vec3> surface_positions,
                 std::unique_ptr<BufferManager> buffer)
      : header_(header),
        surface_vertices_(std::move(surface)),
        surface_positions_(std::move(surface_positions)),
        buffer_(std::move(buffer)) {}

  SnapshotHeader header_;
  std::vector<VertexId> surface_vertices_;
  std::vector<Vec3> surface_positions_;
  std::unique_ptr<BufferManager> buffer_;
};

/// \brief Per-thread read handle over a `PagedMeshStore`, satisfying the
/// `MeshAccessor` concept (see storage/mesh_accessor.h).
///
/// Reads are served, in order of preference, from (1) a held lease (raw
/// frame pointer, no pool interaction), (2) a freshly acquired lease
/// (one `TryPin`, priced as a pool hit or miss plus `pages_leased`), or
/// (3) a transient pin (`CopyOut` semantics — the only path that may
/// block, and never while leases are held). The span returned by
/// `neighbors` stays valid until the next `neighbors` call (`position`
/// calls do not invalidate it): when the run does not cross a page
/// boundary it aliases the leased frame directly (zero-copy) and that
/// lease is protected from revocation; otherwise it points into
/// accessor-local scratch.
///
/// Counter semantics with leasing active: a page is priced into
/// hits/misses once per lease acquisition, reads through a held lease
/// count `lease_hits` only, so `PageAccesses()` ≈ distinct pages touched
/// per batch (`pages_distinct` is the exact per-shard count). With
/// leasing off (`lease_cap() == 0`, e.g. a 2-page pool) every read is a
/// transient pin priced per call — the pre-lease behavior, bit for bit.
///
/// Epoch pages (the bound page table's non-null entries) are memory and
/// pin nothing: the first touch of one in a batch is priced like a lease
/// acquisition (`page_hits`, `pages_leased`, `pages_distinct`), later
/// crawl reads count `lease_hits` and later probe reads count nothing.
/// With leasing off every crawl read of one is a `page_hits`.
class PagedMeshAccessor {
 public:
  /// Upper bound on leases per accessor; the effective cap is the
  /// smaller of this and the per-shard frame budget (2 frames of
  /// headroom per shard stay reserved for transient pins).
  static constexpr size_t kDefaultLeaseCap = 64;
  /// Zero-copy spans (which pin their page while outstanding) switch on
  /// only with at least this much lease budget.
  static constexpr size_t kMinLeasesForZeroCopy = 4;

  /// `stats` receives this context's page-I/O counters (may be
  /// repointed later via `set_stats`). Both pointers must outlive the
  /// accessor. A standalone accessor is configured as a single shard;
  /// batch executors call `BeginBatch` with the real shard count.
  PagedMeshAccessor(const PagedMeshStore* store, PageIOStats* stats)
      : store_(store),
        stats_(stats),
        base_probe_(store->surface_positions().data()) {
    pos_div_.Init(
        static_cast<uint32_t>(store->header().PositionsPerPage()));
    page_stamps_.resize(store->header().num_pages);
    u32_div_.Init(static_cast<uint32_t>(store->header().U32PerPage()));
    ConfigureLeases(1);
  }

  ~PagedMeshAccessor() { EndBatch(); }
  PagedMeshAccessor(const PagedMeshAccessor&) = delete;
  PagedMeshAccessor& operator=(const PagedMeshAccessor&) = delete;

  const PagedMeshStore& store() const { return *store_; }
  void set_stats(PageIOStats* stats) { stats_ = stats; }

  /// Binds the accessor to a batch: releases any stale leases, reads
  /// positions through `position_pages` — one entry per position page,
  /// the epoch's bytes or null for the base snapshot; empty = the base
  /// snapshot throughout (see `ResidentEpoch`) — and sizes the lease
  /// budget for `shards` concurrent accessors sharing the pool. The
  /// table and the bytes it points at must outlive the batch. Adjacency
  /// always reads the base file: connectivity never deforms.
  void BeginBatch(std::span<const std::byte* const> position_pages,
                  size_t shards);

  /// Releases every lease, clears the degraded flag and the per-batch
  /// first-touch tracking. Idempotent; called by the batch core after a
  /// shard's last query so idle accessors hold no pool resources.
  void EndBatch();

  size_t num_vertices() const { return store_->num_vertices(); }

  Vec3 position(VertexId v) {
    const uint32_t page_index = pos_div_.Div(v);
    const size_t offset = pos_div_.Rem(v, page_index) * sizeof(Vec3);
    Vec3 p;
    // MRU fast path: consecutive reads overwhelmingly land on the last
    // position page (crawl locality); serve them with one compare and a
    // 12-byte copy — no page-table lookup, no lease-table probe.
    if (page_index == pos_mru_index_) {
      ++stats_->lease_hits;
      std::memcpy(&p, pos_mru_data_ + offset, sizeof(Vec3));
      return p;
    }
    ReadPosition(page_index, offset, &p);
    return p;
  }

  std::span<const VertexId> neighbors(VertexId v);

  /// The surface probe's position read: `rank` is the vertex's index in
  /// the probe order (== the store's surface list). A page the bound
  /// table holds is read from it; every other read comes from the
  /// store's resident base surface positions — the probe is index work,
  /// not crawled-data I/O — so the per-candidate cost stays a few loads.
  /// Both are read in ascending order, so no software prefetch is needed.
  Vec3 ProbePosition(size_t rank, VertexId v) {
    const uint32_t page_index = pos_div_.Div(v);
    if (page_index < pages_.size()) {
      if (const std::byte* page = pages_[page_index]) {
        if (touched_[page_index] == 0) TouchEpochPage(page_index, page);
        Vec3 p;
        std::memcpy(&p, page + pos_div_.Rem(v, page_index) * sizeof(Vec3),
                    sizeof(Vec3));
        return p;
      }
    }
    return base_probe_[rank];
  }

  /// Real out-of-core prefetch: leases `v`'s position page ahead of
  /// demand — the crawl frontier walking a Hilbert-contiguous run pulls
  /// the next page before the first read lands on it. Strictly
  /// opportunistic: only with free lease budget (never revokes a held
  /// lease), never under degradation, and a failed `TryPin` is simply
  /// dropped.
  void PrefetchPosition(VertexId v);

  /// Deliberately a no-op (see storage/mesh_accessor.h): an adjacency
  /// page leased ahead of demand would change the pool and lease
  /// counters the crawl is priced by.
  void PrefetchNeighbors(VertexId) const {}

  /// Bytes of accessor-local scratch (footprint accounting).
  size_t ScratchBytes() const {
    return scratch_.capacity() * sizeof(VertexId) + sizeof(leases_) +
           lease_table_.num_slots() * sizeof(uint32_t) +
           touched_.capacity() * sizeof(uint8_t) +
           page_stamps_.capacity() * sizeof(uint32_t);
  }

  // Lease introspection (tests and benches).
  size_t lease_cap() const { return lease_cap_; }
  size_t leases_held() const { return count_; }
  bool degraded() const { return degraded_; }
  bool zero_copy_enabled() const { return zero_copy_; }

 private:
  struct Lease {
    const std::byte* data = nullptr;  ///< null marks a free entry
    PageId page = 0;
  };

  void ConfigureLeases(size_t shards);

  bool IsSpanLease(const Lease& l) const { return l.page == span_page_; }

  Lease* FindLease(PageId page);
  /// Marks a held lease most recently used.
  void TouchLease(const Lease* l) {
    lease_lru_.Touch(static_cast<uint32_t>(l - leases_.data()));
  }
  const std::byte* AcquireLease(PageId page, bool speculative);
  void InsertLease(PageId page, const std::byte* data);
  void RevokeLRU();
  /// Forgets entry `index` (its pin must be released or kept elsewhere).
  void DropLease(uint32_t index);
  /// Unpins and forgets every lease; with `keep_span`, the lease backing
  /// the outstanding zero-copy span (if any) survives.
  void ReleaseLeases(bool keep_span);

  void NoteDistinct(PageId page) {
    if (page_stamps_[page] != batch_stamp_) {
      page_stamps_[page] = batch_stamp_;
      ++stats_->pages_distinct;
    }
  }

  /// Read of a base-snapshot page through the lease table, falling back
  /// to a transient pin.
  void ReadPooled(PageId page, size_t offset, size_t len, void* dst);
  void TransientRead(PageId page, size_t offset, size_t len, void* dst);

  /// Prices the batch's first touch of epoch page `index` (see the class
  /// comment).
  void TouchEpochPage(uint32_t index, const std::byte* page);

  void ReadPosition(uint32_t page_index, size_t offset, Vec3* dst) {
    if (page_index < pages_.size()) {
      if (const std::byte* page = pages_[page_index]) {
        ReadEpochPage(page_index, page, offset, dst);
        return;
      }
    }
    const PageId base_page = static_cast<PageId>(
        store_->header().positions_start_page + page_index);
    ReadPooled(base_page, offset, sizeof(Vec3), dst);
    // If the read left a lease on this page, remember its frame for the
    // MRU fast path in position().
    if (mru_ != nullptr && mru_->page == base_page) {
      pos_mru_index_ = page_index;
      pos_mru_data_ = mru_->data;
    }
  }
  void ReadEpochPage(uint32_t index, const std::byte* page, size_t offset,
                     Vec3* dst);

  uint32_t ReadU32(uint64_t section_start_page, uint64_t index);

  const PagedMeshStore* store_;
  PageIOStats* stats_;
  /// The bound batch's position page table (empty = base snapshot) and
  /// the store's base probe-order positions.
  std::span<const std::byte* const> pages_;
  const Vec3* base_probe_;
  std::vector<VertexId> scratch_;  // neighbors() copy-out target

  // Lease table: up to lease_cap_ held leases in stable entries, found
  // through an open-addressed page -> entry index table, and
  // kept on a recency list (least recently used first) that picks the
  // revocation victim. Free entry indices sit on a stack:
  // free_[0, kDefaultLeaseCap - count_).
  std::array<Lease, kDefaultLeaseCap> leases_{};
  IndexHashTable lease_table_;
  LruList lease_lru_;
  std::array<uint32_t, kDefaultLeaseCap> free_{};
  size_t count_ = 0;
  size_t lease_cap_ = 0;
  bool zero_copy_ = false;
  /// Pool pressure hit: serve the rest of the batch through transient
  /// pins (graceful degradation; reset by EndBatch).
  bool degraded_ = false;
  /// Page of the lease backing the current zero-copy neighbors() span
  /// (revocation-protected); kInvalidPageId means no such span.
  PageId span_page_ = kInvalidPageId;
  uint64_t last_prefetch_page_ = ~0ull;
  /// MRU caches for the two per-read hot paths. `mru_` points at the
  /// most recently used lease entry (entries never move; revoking that
  /// entry or a release resets it); the pos pair short-circuits
  /// `position()` to a stable frame or epoch page keyed by position page
  /// index. Never populated with transient-pin data, and never in legacy
  /// (lease_cap_ == 0) mode where every read must be re-priced.
  Lease* mru_ = nullptr;
  uint64_t pos_mru_index_ = ~0ull;
  const std::byte* pos_mru_data_ = nullptr;
  FastDiv pos_div_;
  FastDiv u32_div_;
  /// Per-batch first-touch byte per epoch page: epoch pages pin
  /// nothing, so they bypass the bounded lease table — this prices them
  /// once per batch.
  std::vector<uint8_t> touched_;
  /// Exact distinct base pages touched this batch: page `p` was touched
  /// iff `page_stamps_[p] == batch_stamp_`, so ending a batch is one
  /// increment. One word per snapshot page — a fraction of the O(V)
  /// position state a batch already holds.
  std::vector<uint32_t> page_stamps_;
  uint32_t batch_stamp_ = 1;
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_PAGED_MESH_H_
