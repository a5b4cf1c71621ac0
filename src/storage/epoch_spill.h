// Copyright 2026 The OCTOPUS Reproduction Authors
// The epoch spill sidecar (`.oct2d`): a paged file that holds the
// overlay pages of epochs that left the retention window — one format
// for both backends, since every epoch is a `PositionOverlay`. The base
// OCT2 snapshot stays the step-0 source of truth and is never written;
// the sidecar is a cache of *history* — created per serving run,
// deleted on close — whose pages are read back on demand through a
// byte-capped `BufferManager`, so reloading a spilled epoch costs
// measurable page I/O instead of resident memory.
//
// Layout: page 0 is a small header ("OC2D", version, page size); every
// other page holds one spilled overlay page, zero-padded to the page
// size exactly as the OCT2 writer would emit it, so a reloaded page is
// byte-identical to its once-resident overlay twin.
//
// The sidecar is a recycled page store. Each spill gets its page ids
// from a free list (lowest id first, then past the high-water mark) and
// returns a shared `SpillExtent` token owning them; when the last
// reader of the spilled epoch drops the token, the ids go back to the
// free list and the next spill overwrites them. The file therefore
// never holds more pages than the epochs still readable: the history
// ring's spilled epochs plus the pinned ones plus any in-flight spill
// or batch still reading an evicted epoch.
#ifndef OCTOPUS_STORAGE_EPOCH_SPILL_H_
#define OCTOPUS_STORAGE_EPOCH_SPILL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace octopus::storage {

/// \brief The sidecar's page-id allocator: a free list plus the
/// high-water mark (the first id never handed out). Internally locked —
/// ids come back from whichever thread drops an extent's last reference,
/// possibly under the epoch store's ring mutex when an eviction drops
/// it, so the allocator's mutex is a leaf: nothing is locked under it.
class SpillPageAllocator {
 public:
  /// `n` ids, ascending: the lowest free ids first, then fresh ids past
  /// the high-water mark — so a spill's pages form few contiguous runs
  /// and the file stays as small as the live pages allow.
  std::vector<PageId> Allocate(size_t n) EXCLUDES(mu_);
  /// Returns `ids` to the free list.
  void Release(std::span<const PageId> ids) EXCLUDES(mu_);
  uint64_t pages_free() const EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_;
  std::set<PageId> free_ GUARDED_BY(mu_);
  PageId next_ GUARDED_BY(mu_) = 1;  // page 0 is the header
};

/// \brief The sidecar pages of one spill, readable through `pool()`.
/// Owns its ids: destroying the extent hands them back for reuse, so a
/// spilled epoch's pages stay valid exactly as long as something holds
/// the extent (held by the epoch's spilled overlay twin).
class SpillExtent {
 public:
  SpillExtent(std::shared_ptr<SpillPageAllocator> allocator,
              std::vector<PageId> ids, std::shared_ptr<BufferManager> pool)
      : allocator_(std::move(allocator)),
        ids_(std::move(ids)),
        pool_(std::move(pool)) {}
  ~SpillExtent() { allocator_->Release(ids_); }

  SpillExtent(const SpillExtent&) = delete;
  SpillExtent& operator=(const SpillExtent&) = delete;

  /// Sidecar page id of each written page, in `Write` order.
  std::span<const PageId> ids() const { return ids_; }
  BufferManager* pool() const { return pool_.get(); }

 private:
  std::shared_ptr<SpillPageAllocator> allocator_;
  std::vector<PageId> ids_;
  std::shared_ptr<BufferManager> pool_;
};

/// \brief The spill file + its page allocator + the read pool over it.
///
/// Thread-safe: `Write` may run on several threads at once (each writes
/// only the ids it was just allocated), and readers go through
/// `pool()`, thread-safe like every `BufferManager`.
class EpochSpillFile {
 public:
  /// Creates `path` (exclusively — an existing file is an error) with a
  /// header page. `pool_bytes` caps the reload pool (>= 2 pages).
  static Result<std::unique_ptr<EpochSpillFile>> Create(
      const std::string& path, uint32_t page_bytes, size_t pool_bytes);

  /// Closes and deletes the sidecar: it holds no data that outlives the
  /// serving run (history is rebuilt from step 0 next time).
  ~EpochSpillFile();

  EpochSpillFile(const EpochSpillFile&) = delete;
  EpochSpillFile& operator=(const EpochSpillFile&) = delete;

  /// Writes `pages` (each at most one page; shorter ones are zero-padded
  /// to the page size, writer-identical) to freshly allocated ids, one
  /// `pwritev` per run of consecutive ids, and makes them readable
  /// through the pool, after discarding any frame the pool still caches
  /// for a recycled id. IOError on a failed write, with the ids returned
  /// to the free list.
  Result<std::shared_ptr<const SpillExtent>> Write(
      std::span<const std::span<const std::byte>> pages);

  const std::shared_ptr<BufferManager>& pool() const { return pool_; }
  uint32_t page_bytes() const { return page_bytes_; }
  const std::string& path() const { return path_; }
  /// Pages written so far (excluding the header page), monotonic: a
  /// recycled id counts again each time it is rewritten.
  uint64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_written() const { return pages_written() * page_bytes_; }
  /// The file's size on disk — its footprint, header page included.
  uint64_t file_bytes() const;
  /// Ids below the high-water mark that no extent owns.
  uint64_t pages_free() const { return allocator_->pages_free(); }

 private:
  EpochSpillFile(std::string path, uint32_t page_bytes, int fd,
                 std::shared_ptr<BufferManager> pool);

  /// Writes `pages` at consecutive ids starting at `first` (one run).
  Status WriteRun(PageId first,
                  std::span<const std::span<const std::byte>> pages);

  const std::string path_;
  const uint32_t page_bytes_;
  const int fd_;  // write handle; the pool holds its own read handle
  const std::shared_ptr<BufferManager> pool_;
  const std::shared_ptr<SpillPageAllocator> allocator_;
  /// One page of zeros: the pad source of every short page.
  const std::vector<std::byte> zero_page_;
  std::atomic<uint64_t> pages_written_{0};
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_EPOCH_SPILL_H_
