// Copyright 2026 The OCTOPUS Reproduction Authors
// A byte-capped buffer pool over a paged snapshot file: the component
// that makes "how many pages did this query touch?" a first-class,
// measurable quantity (the paper's unit of disk cost, Sec. IV-H1).
//
// Frames are allocated lazily up to the byte cap and NEVER beyond it —
// under memory pressure pages are evicted (LRU or clock, pluggable),
// pinned pages excepted. All operations are thread-safe; per-context
// counters are accumulated through the caller-supplied `PageIOStats`.
//
// Every bookkeeping step is O(1) and allocation-free once the pool is
// full: the page table is an open-addressed map sized to the pool (not
// to the file — a 33 GB mesh must not cost a per-file-page array), and
// LRU keeps the frames on a recency list, so the victim is the first
// unpinned frame from its head — at most the pinned frames are skipped,
// never the whole pool.
#ifndef OCTOPUS_STORAGE_BUFFER_MANAGER_H_
#define OCTOPUS_STORAGE_BUFFER_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/lru_table.h"
#include "storage/page.h"

namespace octopus::storage {

/// \brief Fixed-capacity page cache with pin/unpin and pluggable
/// eviction.
///
/// Pin discipline: query-path readers (`PagedMeshAccessor`) hold at most
/// one pin at a time and release it before returning, so even a 2-frame
/// pool can serve any number of threads — a `Pin` that finds every frame
/// pinned by other threads blocks until one is released.
class BufferManager {
 public:
  /// Page-replacement policy.
  enum class Eviction {
    kLRU,    ///< evict the least recently accessed unpinned page
    kClock,  ///< second-chance clock sweep over the frames
  };

  struct Options {
    /// Hard byte cap of the pool. Frames of `page_bytes` each are
    /// allocated lazily; their total never exceeds this cap (and the cap
    /// must cover at least 2 pages).
    size_t pool_bytes = 4u << 20;
    Eviction eviction = Eviction::kLRU;
  };

  /// Opens `path` for reading pages of `page_bytes` (pages beyond
  /// `num_pages` are out of range). Fails if the cap is under 2 pages.
  static Result<std::unique_ptr<BufferManager>> Open(
      const std::string& path, size_t page_bytes, uint64_t num_pages,
      const Options& options);

  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  size_t page_bytes() const { return page_bytes_; }
  /// Maximum frames the cap allows.
  size_t max_frames() const { return max_frames_; }
  /// The configured cap.
  size_t PoolCapBytes() const { return options_.pool_bytes; }
  /// Bytes actually allocated for frames so far (the high-water mark:
  /// frames are never freed). Always <= PoolCapBytes().
  size_t AllocatedBytes() const;
  /// Pool-wide totals across every context (hits/misses/evictions).
  PageIOStats TotalStats() const;

  /// Pins `page` resident and returns its frame memory (valid until the
  /// matching `Unpin`). Counts a hit or a miss (plus any eviction) into
  /// `stats`. Blocks if every frame is currently pinned by other
  /// threads. Asserts on out-of-range pages (programming error).
  const std::byte* Pin(PageId page, PageIOStats* stats);

  /// Non-blocking `Pin`: returns null — and counts nothing — when the
  /// page is not resident and no frame can be acquired (every frame
  /// pinned). On success the caller holds a pin exactly as with `Pin`.
  /// This is the only way leases are acquired (paged_mesh.h): a lease
  /// holder must never block inside the pool, so a constrained pool
  /// degrades accessors to the transient-pin path instead of
  /// deadlocking — the 2-page-pool-serves-any-thread-count guarantee
  /// survives leasing.
  const std::byte* TryPin(PageId page, PageIOStats* stats);

  /// Releases one pin on `page` (which must be pinned).
  void Unpin(PageId page);

  /// Convenience read: copies `[offset, offset + len)` of `page` into
  /// `dst` under a transient pin. `offset + len` must lie within the
  /// page.
  void CopyOut(PageId page, size_t offset, size_t len, void* dst,
               PageIOStats* stats);

  /// Pins currently held on `page`, or nullopt when it is not resident
  /// (introspection for tests; the answer may be stale on return).
  std::optional<uint32_t> PinCount(PageId page) const;

 private:
  struct Frame {
    std::unique_ptr<std::byte[]> data;
    PageId page = kInvalidPageId;
    uint32_t pins = 0;
    bool referenced = false;  // second-chance bit (clock)
  };

  BufferManager(int fd, size_t page_bytes, uint64_t num_pages,
                const Options& options);

  /// Reads `page` from the file into `frame`.
  void ReadPage(PageId page, Frame* frame) REQUIRES(mu_);

  /// Frame index holding `page`, or kNoIndex.
  uint32_t FindFrame(PageId page) const REQUIRES(mu_) {
    // The lambda reads the frames through a reference bound here, under
    // the lock (clang's analysis does not carry REQUIRES into lambdas).
    const std::vector<Frame>& frames = frames_;
    return page_table_.Find(page, [&frames, page](uint32_t i) {
      return frames[i].page == page;
    });
  }
  /// Pins the resident frame `index` for an access (a pool hit).
  const std::byte* PinHit(uint32_t index, PageIOStats* stats) REQUIRES(mu_);
  /// Loads `page` into the acquired frame `index` and pins it (a miss).
  const std::byte* PinLoad(PageId page, uint32_t index, PageIOStats* stats)
      REQUIRES(mu_);
  /// Drops frame `index`'s page from the page table and empties it.
  void EraseFromPageTable(uint32_t index) REQUIRES(mu_);

  /// Returns the index of a frame ready to receive a new page (growing
  /// the pool or evicting), or `max_frames()` when every frame is
  /// currently pinned. Never blocks.
  size_t TryAcquireFrame(PageIOStats* stats) REQUIRES(mu_);
  /// Victim selection among unpinned frames; returns max_frames() when
  /// every frame is pinned.
  size_t PickVictim() REQUIRES(mu_);

  const Options options_;
  const size_t page_bytes_;
  const size_t max_frames_;

  mutable common::Mutex mu_;
  common::CondVar frame_freed_;
  const uint64_t num_pages_;
  const int fd_;  // read-only; pread needs no seek state
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  /// Resident page -> frame index; at most half full.
  IndexHashTable page_table_ GUARDED_BY(mu_);
  /// Every frame in access order, least recent first.
  LruList lru_ GUARDED_BY(mu_);
  size_t clock_hand_ GUARDED_BY(mu_) = 0;
  PageIOStats totals_ GUARDED_BY(mu_);
};

const char* EvictionName(BufferManager::Eviction eviction);

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_BUFFER_MANAGER_H_
