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
#ifndef OCTOPUS_STORAGE_PAGED_MESH_H_
#define OCTOPUS_STORAGE_PAGED_MESH_H_

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

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
  /// from here at memory speed — only overlay-covered (deformed) pages
  /// cost page accesses, which keeps a query's page-access count near
  /// the distinct pages its walk and crawl actually touch.
  const std::vector<Vec3>& surface_positions() const {
    return surface_positions_;
  }

  /// Surface ranks by position page: the surface vertices on position
  /// page `p` are ranks [surface_page_ranks()[p], surface_page_ranks()[p
  /// + 1]) of `surface_vertices()` (one entry per page, plus one).
  const std::vector<uint32_t>& surface_page_ranks() const {
    return surface_page_ranks_;
  }

  BufferManager* buffer_manager() const { return buffer_.get(); }

  /// Snapshot bytes on disk.
  size_t FileBytes() const { return header_.FileBytes(); }

  /// Bytes of index-side data held resident by the store itself (the
  /// surface id list and its base positions) — counted into executor
  /// footprints alongside the surface hash table.
  size_t ResidentBytes() const {
    return surface_vertices_.capacity() * sizeof(VertexId) +
           surface_positions_.capacity() * sizeof(Vec3) +
           surface_page_ranks_.capacity() * sizeof(uint32_t);
  }

 private:
  PagedMeshStore(SnapshotHeader header, std::vector<VertexId> surface,
                 std::vector<Vec3> surface_positions,
                 std::vector<uint32_t> surface_page_ranks,
                 std::unique_ptr<BufferManager> buffer)
      : header_(header),
        surface_vertices_(std::move(surface)),
        surface_positions_(std::move(surface_positions)),
        surface_page_ranks_(std::move(surface_page_ranks)),
        buffer_(std::move(buffer)) {}

  SnapshotHeader header_;
  std::vector<VertexId> surface_vertices_;
  std::vector<Vec3> surface_positions_;
  std::vector<uint32_t> surface_page_ranks_;
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
        probe_positions_(store->surface_positions().data()) {
    pos_div_.Init(
        static_cast<uint32_t>(store->header().PositionsPerPage()));
    u32_div_.Init(static_cast<uint32_t>(store->header().U32PerPage()));
    ConfigureLeases(1);
  }

  ~PagedMeshAccessor() { EndBatch(); }
  PagedMeshAccessor(const PagedMeshAccessor&) = delete;
  PagedMeshAccessor& operator=(const PagedMeshAccessor&) = delete;

  const PagedMeshStore& store() const { return *store_; }
  void set_stats(PageIOStats* stats) { stats_ = stats; }

  /// Binds the accessor to a batch: releases any stale leases, pins
  /// position reads to `overlay` (null = base snapshot), and sizes the
  /// lease budget for `shards` concurrent accessors sharing the pool.
  /// While an overlay is set, position pages present in it are served
  /// from its (memory-resident) delta bytes or its spill sidecar — the
  /// epoch the caller pinned; the overlay must outlive the batch.
  /// Adjacency always reads the base file: connectivity never deforms.
  void BeginBatch(const PositionOverlay* overlay, size_t shards);

  /// Releases every lease, clears the degraded flag and the per-batch
  /// first-touch tracking. Idempotent; called by the batch core after a
  /// shard's last query so idle accessors hold no pool resources.
  void EndBatch();

  size_t num_vertices() const { return store_->num_vertices(); }

  Vec3 position(VertexId v) {
    const uint64_t page_index = pos_div_.Div(v);
    const size_t offset =
        (v - page_index * pos_div_.divisor()) * sizeof(Vec3);
    Vec3 p;
    // MRU fast path: consecutive reads overwhelmingly land on the last
    // position page (crawl locality); serve them with one compare and a
    // 12-byte copy — no overlay lookup, no lease-table probe.
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
  /// the probe order (== the store's surface list). Overlay-covered
  /// (deformed) pages read through the overlay like `position`; all
  /// other reads come from the store's resident surface positions — the
  /// probe is index work, not crawled-data I/O.
  /// The probe is a bare array read: `probe_positions_` points at the
  /// store's base surface positions, or — while an overlay is bound — at
  /// a batch-local copy `BeginBatch` patched with the overlay's deformed
  /// pages (priced once per covered page, like the crawl's first touch).
  /// Either way the per-candidate cost matches the in-memory executor.
  Vec3 ProbePosition(size_t rank, VertexId) const {
    return probe_positions_[rank];
  }

  void PrefetchProbePosition(size_t rank, VertexId) {
    __builtin_prefetch(probe_positions_ + rank);
  }

  /// Real out-of-core prefetch: leases `v`'s position page ahead of
  /// demand — the crawl frontier walking a Hilbert-contiguous run pulls
  /// the next page before the first read lands on it. Strictly
  /// opportunistic: only with free lease budget (never revokes a held
  /// lease), never under degradation, and a failed `TryPin` is simply
  /// dropped.
  void PrefetchPosition(VertexId v);

  /// Bytes of accessor-local scratch (footprint accounting).
  size_t ScratchBytes() const {
    return scratch_.capacity() * sizeof(VertexId) + sizeof(leases_) +
           lease_table_.num_slots() * sizeof(uint32_t) +
           overlay_touched_.capacity() * sizeof(uint8_t) +
           patched_probe_.capacity() * sizeof(Vec3) +
           patched_pages_.capacity() * sizeof(uint32_t);
  }

  // Lease introspection (tests and benches).
  size_t lease_cap() const { return lease_cap_; }
  size_t leases_held() const { return count_; }
  bool degraded() const { return degraded_; }
  bool zero_copy_enabled() const { return zero_copy_; }

 private:
  struct Lease {
    const std::byte* data = nullptr;  ///< null marks a free entry
    BufferManager* pool = nullptr;    ///< pool holding the pin
    PageId page = 0;
  };

  /// Division by a fixed runtime divisor via reciprocal multiplication
  /// (exact for any 32-bit numerator). Page-index math runs on every
  /// read; a hardware divide per read is measurable against the
  /// in-memory path.
  class FastDiv {
   public:
    void Init(uint32_t divisor) {
      d_ = divisor;
      magic_ = ~0ull / divisor + 1;
    }
    uint32_t Div(uint32_t n) const {
      return static_cast<uint32_t>(
          (static_cast<unsigned __int128>(magic_) * n) >> 64);
    }
    uint32_t divisor() const { return d_; }

   private:
    uint64_t magic_ = 0;
    uint32_t d_ = 1;
  };

  // Tags namespacing `pages_distinct` keys across pools.
  static constexpr uint8_t kTagBase = 0;
  static constexpr uint8_t kTagSpill = 1;

  void ConfigureLeases(size_t shards);

  bool HasSpan() const { return span_pool_ != nullptr; }
  bool IsSpanLease(const Lease& l) const {
    return HasSpan() && l.pool == span_pool_ && l.page == span_page_;
  }

  static uint64_t LeaseKey(const BufferManager* pool, PageId page) {
    return page + (reinterpret_cast<uintptr_t>(pool) >> 4);
  }
  Lease* FindLease(BufferManager* pool, PageId page);
  /// Marks a held lease most recently used.
  void TouchLease(const Lease* l) {
    lease_lru_.Touch(static_cast<uint32_t>(l - leases_.data()));
  }
  const std::byte* AcquireLease(BufferManager* pool, uint8_t tag,
                                PageId page, bool speculative);
  void InsertLease(BufferManager* pool, PageId page, const std::byte* data);
  void RevokeLRU();
  /// Forgets entry `index` (its pin must be released or kept elsewhere).
  void DropLease(uint32_t index);
  /// Unpins and forgets every lease; with `keep_span`, the lease backing
  /// the outstanding zero-copy span (if any) survives.
  void ReleaseLeases(bool keep_span);

  void NoteDistinct(uint8_t tag, PageId page) {
    if (distinct_.insert((static_cast<uint64_t>(tag) << 32) | page).second) {
      ++stats_->pages_distinct;
    }
  }

  /// Read through the lease table, falling back to a transient pin.
  void ReadPooled(BufferManager* pool, uint8_t tag, PageId page,
                  size_t offset, size_t len, void* dst);
  void TransientRead(BufferManager* pool, uint8_t tag, PageId page,
                     size_t offset, size_t len, void* dst);

  /// Overlay read of position page `index`; false = page not in the
  /// overlay (read the base snapshot).
  bool ReadOverlay(uint64_t index, size_t offset, size_t len, void* dst);

  /// Points `probe_positions_` at a batch-local surface-position array
  /// patched with the bound overlay's deformed pages (reverting last
  /// batch's patches first). Called by `BeginBatch` when an overlay is
  /// set.
  void PatchProbePositions();

  void ReadPosition(uint64_t page_index, size_t offset, Vec3* dst) {
    if (overlay_ != nullptr && overlay_->Covers(page_index) &&
        ReadOverlay(page_index, offset, sizeof(Vec3), dst)) {
      return;
    }
    const SnapshotHeader& h = store_->header();
    BufferManager* pool = store_->buffer_manager();
    const PageId page =
        static_cast<PageId>(h.positions_start_page + page_index);
    ReadPooled(pool, kTagBase, page, offset, sizeof(Vec3), dst);
    // If the read left a lease on this page, remember its frame for the
    // MRU fast path in position().
    if (mru_ != nullptr && mru_->page == page && mru_->pool == pool) {
      pos_mru_index_ = page_index;
      pos_mru_data_ = mru_->data;
    }
  }

  uint32_t ReadU32(uint64_t section_start_page, uint64_t index);

  const PagedMeshStore* store_;
  PageIOStats* stats_;
  const PositionOverlay* overlay_ = nullptr;
  std::vector<VertexId> scratch_;  // neighbors() copy-out target

  // Lease table: up to lease_cap_ held leases in stable entries, found
  // through an open-addressed (pool, page) -> entry index table, and
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
  /// Key of the lease backing the current zero-copy neighbors() span
  /// (revocation-protected); span_pool_ == nullptr means no such span.
  BufferManager* span_pool_ = nullptr;
  PageId span_page_ = kInvalidPageId;
  uint64_t last_prefetch_page_ = ~0ull;
  /// MRU caches for the two per-read hot paths. `mru_` points at the
  /// most recently used lease entry (entries never move; revoking that
  /// entry or a release resets it); the pos pair short-circuits
  /// `position()` to a stable frame or overlay-resident byte range keyed
  /// by position page index. Never populated with transient-pin data, and never in
  /// legacy (lease_cap_ == 0) mode where every read must be re-priced.
  Lease* mru_ = nullptr;
  uint64_t pos_mru_index_ = ~0ull;
  const std::byte* pos_mru_data_ = nullptr;
  FastDiv pos_div_;
  FastDiv u32_div_;
  /// Probe-order positions the current batch reads: the store's base
  /// array, or `patched_probe_` while an overlay is bound (see
  /// `PatchProbePositions`). `patched_pages_` records the position pages
  /// whose surface ranks the last patch overwrote, so the next batch
  /// reverts only those.
  const Vec3* probe_positions_ = nullptr;
  std::vector<Vec3> patched_probe_;
  std::vector<uint32_t> patched_pages_;
  /// Per-batch first-touch bit per overlay page slot: memory-resident
  /// delta pages pin nothing, so they bypass the bounded lease table —
  /// this prices them once per batch (hit + lease) and `lease_hits`
  /// thereafter.
  std::vector<uint8_t> overlay_touched_;
  /// Exact distinct (pool, page) pairs touched this batch.
  std::unordered_set<uint64_t> distinct_;
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_PAGED_MESH_H_
