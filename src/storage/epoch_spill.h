// Copyright 2026 The OCTOPUS Reproduction Authors
// The epoch spill sidecar (`.oct2d`): an append-only paged file that
// holds the overlay pages of epochs that left the retention window —
// one format for both backends, since every epoch is a
// `PositionOverlay`. The base OCT2 snapshot stays the step-0 source of
// truth and is never written; the sidecar is a cache of *history* —
// created per serving run, deleted on close — whose pages are read back
// on demand through a byte-capped `BufferManager`, so reloading a
// spilled epoch costs measurable page I/O instead of resident memory.
//
// Layout: page 0 is a small header ("OC2D", version, page size);
// spilled pages are appended after it, each zero-padded to the page
// size exactly as the OCT2 writer would emit it, so a reloaded page is
// byte-identical to its once-resident overlay twin.
#ifndef OCTOPUS_STORAGE_EPOCH_SPILL_H_
#define OCTOPUS_STORAGE_EPOCH_SPILL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/file_util.h"
#include "storage/page.h"

namespace octopus::storage {

/// \brief Append-only spill file + the read pool over it.
///
/// One writer (the thread publishing epochs — `AppendPage`/`Sync`), any
/// number of readers through `pool()` (thread-safe like every
/// `BufferManager`). Appended pages become readable only after `Sync`
/// extends the pool past them; the store calls `Sync` once per spilled
/// epoch, before publishing the spill-backed twin.
class EpochSpillFile {
 public:
  /// Creates (truncating) `path` with a header page. `pool_bytes` caps
  /// the reload pool (>= 2 pages).
  static Result<std::unique_ptr<EpochSpillFile>> Create(
      const std::string& path, uint32_t page_bytes, size_t pool_bytes);

  /// Closes and deletes the sidecar: it holds no data that outlives the
  /// serving run (history is rebuilt from step 0 next time).
  ~EpochSpillFile();

  EpochSpillFile(const EpochSpillFile&) = delete;
  EpochSpillFile& operator=(const EpochSpillFile&) = delete;

  /// Appends `bytes` (at most one page; shorter spans are zero-padded
  /// to the page size, writer-identical) and returns the sidecar page
  /// id it now lives at. Not readable until the next `Sync`.
  Result<PageId> AppendPage(std::span<const std::byte> bytes);

  /// Flushes appended pages and extends the read pool over them.
  Status Sync();

  const std::shared_ptr<BufferManager>& pool() const { return pool_; }
  uint32_t page_bytes() const { return page_bytes_; }
  const std::string& path() const { return path_; }
  /// Pages appended so far (excluding the header page).
  uint64_t pages_written() const { return next_page_ - 1; }
  uint64_t bytes_written() const {
    return pages_written() * page_bytes_;
  }

 private:
  EpochSpillFile(std::string path, uint32_t page_bytes, FilePtr file,
                 std::shared_ptr<BufferManager> pool)
      : path_(std::move(path)),
        page_bytes_(page_bytes),
        file_(std::move(file)),
        pool_(std::move(pool)) {}

  std::string path_;
  uint32_t page_bytes_;
  FilePtr file_;  // append handle; the pool holds its own read handle
  std::shared_ptr<BufferManager> pool_;
  uint64_t next_page_ = 1;  // page 0 is the header
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_EPOCH_SPILL_H_
