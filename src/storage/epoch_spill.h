// Copyright 2026 The OCTOPUS Reproduction Authors
// The epoch spill sidecar (`.oct2d`): a paged file that holds the
// overlay pages of epochs that left the retention window — one format
// for both backends, since every epoch is a `PositionOverlay`. The base
// OCT2 snapshot stays the step-0 source of truth and is never written;
// the sidecar is a cache of *history* — created per serving run,
// deleted on close. A batch that pins a spilled epoch reads the epoch's
// pages back once, with one `preadv` per run of consecutive sidecar ids
// (`SpillExtent::Read`), into memory it owns for the length of the
// batch: a spilled epoch costs disk and priced page I/O per batch, not
// resident memory between batches. A short read or an I/O error is a
// typed IOError, never zero-filled positions.
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

/// \brief The sidecar's open descriptor, shared by the file and every
/// extent: a spilled epoch stays readable while anything holds it, even
/// past the file's close (an unlinked file stays readable through an
/// open descriptor).
struct SpillHandle {
  SpillHandle(int fd, uint32_t page_bytes, std::string path)
      : fd(fd), page_bytes(page_bytes), path(std::move(path)) {}
  ~SpillHandle();
  SpillHandle(const SpillHandle&) = delete;
  SpillHandle& operator=(const SpillHandle&) = delete;

  const int fd;
  const uint32_t page_bytes;
  const std::string path;
};

/// \brief The sidecar pages of one spill. Owns its ids: destroying the
/// extent hands them back for reuse, so a spilled epoch's pages stay
/// valid exactly as long as something holds the extent (held by the
/// epoch's spilled overlay twin).
class SpillExtent {
 public:
  SpillExtent(std::shared_ptr<SpillPageAllocator> allocator,
              std::vector<PageId> ids,
              std::shared_ptr<const SpillHandle> file)
      : allocator_(std::move(allocator)),
        ids_(std::move(ids)),
        file_(std::move(file)) {}
  ~SpillExtent() { allocator_->Release(ids_); }

  SpillExtent(const SpillExtent&) = delete;
  SpillExtent& operator=(const SpillExtent&) = delete;

  /// Sidecar page id of each written page, in `Write` order.
  std::span<const PageId> ids() const { return ids_; }

  /// Reads the extent back: page `ids()[i]` into `dst[i]` (one span per
  /// id, at most a page; the rest of the page — the writer's zero pad —
  /// is skipped), with one `preadv` per run of consecutive ids. IOError
  /// on an I/O error or a short read (a truncated sidecar): the caller
  /// never sees zero-filled bytes. Thread-safe.
  Status Read(std::span<const std::span<std::byte>> dst) const;

 private:
  std::shared_ptr<SpillPageAllocator> allocator_;
  std::vector<PageId> ids_;
  std::shared_ptr<const SpillHandle> file_;
};

/// \brief The spill file + its page allocator.
///
/// Thread-safe: `Write` may run on several threads at once (each writes
/// only the ids it was just allocated), and extents read concurrently
/// with both (`pread`/`pwrite` keep no seek state).
class EpochSpillFile {
 public:
  /// Creates `path` (exclusively — an existing file is an error) with a
  /// header page.
  static Result<std::unique_ptr<EpochSpillFile>> Create(
      const std::string& path, uint32_t page_bytes);

  /// Deletes the sidecar: it holds no data that outlives the serving
  /// run (history is rebuilt from step 0 next time). The descriptor
  /// closes with its last holder.
  ~EpochSpillFile();

  EpochSpillFile(const EpochSpillFile&) = delete;
  EpochSpillFile& operator=(const EpochSpillFile&) = delete;

  /// Writes `pages` (each at most one page; shorter ones are zero-padded
  /// to the page size, writer-identical) to freshly allocated ids, one
  /// `pwritev` per run of consecutive ids. IOError on a failed write,
  /// with the ids returned to the free list.
  Result<std::shared_ptr<const SpillExtent>> Write(
      std::span<const std::span<const std::byte>> pages);

  uint32_t page_bytes() const { return file_->page_bytes; }
  const std::string& path() const { return file_->path; }
  /// Pages written so far (excluding the header page), monotonic: a
  /// recycled id counts again each time it is rewritten.
  uint64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_written() const { return pages_written() * page_bytes(); }
  /// The file's size on disk — its footprint, header page included.
  uint64_t file_bytes() const;
  /// Ids below the high-water mark that no extent owns.
  uint64_t pages_free() const { return allocator_->pages_free(); }

 private:
  explicit EpochSpillFile(std::shared_ptr<const SpillHandle> file);

  /// Writes `pages` at consecutive ids starting at `first` (one run).
  Status WriteRun(PageId first,
                  std::span<const std::span<const std::byte>> pages);

  const std::shared_ptr<const SpillHandle> file_;
  const std::shared_ptr<SpillPageAllocator> allocator_;
  /// One page of zeros: the pad source of every short page.
  const std::vector<std::byte> zero_page_;
  std::atomic<uint64_t> pages_written_{0};
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_EPOCH_SPILL_H_
