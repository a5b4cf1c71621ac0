// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/epoch_spill.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>

#include "storage/snapshot.h"

namespace octopus::storage {

namespace {
constexpr char kSpillMagic[4] = {'O', 'C', '2', 'D'};
constexpr uint32_t kSpillVersion = 1;

/// Resumes a vectored transfer after `done` bytes landed: skips the
/// entries from `*next` that completed and trims a partial one.
void AdvanceIov(std::vector<iovec>* iov, size_t* next, size_t done) {
  while (done > 0) {
    iovec& entry = (*iov)[*next];
    if (done >= entry.iov_len) {
      done -= entry.iov_len;
      ++*next;
    } else {
      entry.iov_base = static_cast<char*>(entry.iov_base) + done;
      entry.iov_len -= done;
      done = 0;
    }
  }
}

}  // namespace

std::vector<PageId> SpillPageAllocator::Allocate(size_t n) {
  std::vector<PageId> ids;
  ids.reserve(n);
  common::MutexLock lock(mu_);
  while (ids.size() < n && !free_.empty()) {
    ids.push_back(*free_.begin());
    free_.erase(free_.begin());
  }
  while (ids.size() < n) ids.push_back(next_++);
  return ids;
}

void SpillPageAllocator::Release(std::span<const PageId> ids) {
  common::MutexLock lock(mu_);
  free_.insert(ids.begin(), ids.end());
}

uint64_t SpillPageAllocator::pages_free() const {
  common::MutexLock lock(mu_);
  return free_.size();
}

SpillHandle::~SpillHandle() { ::close(fd); }

Status SpillExtent::Read(std::span<const std::span<std::byte>> dst) const {
  assert(dst.size() == ids_.size() && "one destination per page");
  const size_t page_bytes = file_->page_bytes;
  // The zero pad past a short destination is read into one scratch page
  // (every pad of the call lands there; nothing reads it back).
  std::vector<std::byte> pad;
  std::vector<iovec> iov;
  for (size_t begin = 0, end = 0; begin < ids_.size(); begin = end) {
    end = begin + 1;
    while (end < ids_.size() && ids_[end] == ids_[end - 1] + 1) ++end;
    iov.clear();
    for (size_t i = begin; i < end; ++i) {
      assert(dst[i].size() <= page_bytes && "destination exceeds the page");
      if (!dst[i].empty()) iov.push_back({dst[i].data(), dst[i].size()});
      if (dst[i].size() < page_bytes) {
        if (pad.empty()) pad.resize(page_bytes);
        iov.push_back({pad.data(), page_bytes - dst[i].size()});
      }
    }
    off_t offset = static_cast<off_t>(ids_[begin]) * page_bytes;
    for (size_t next = 0; next < iov.size();) {
      const int count =
          static_cast<int>(std::min<size_t>(iov.size() - next, IOV_MAX));
      const ssize_t got = ::preadv(file_->fd, iov.data() + next, count,
                                   offset);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        return Status::IOError(
            "spill reload failed: " + file_->path + ": " +
            (got < 0 ? std::strerror(errno)
                     : "short read at sidecar page " +
                           std::to_string(offset / page_bytes) +
                           " (the sidecar was truncated)"));
      }
      offset += got;
      AdvanceIov(&iov, &next, static_cast<size_t>(got));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<EpochSpillFile>> EpochSpillFile::Create(
    const std::string& path, uint32_t page_bytes) {
  if (page_bytes < kMinPageBytes || page_bytes > (1u << 24)) {
    return Status::InvalidArgument("implausible spill page size " +
                                   std::to_string(page_bytes));
  }
  // Exclusive create: the sidecar owns its path for the length of the
  // run and deletes it on close, so silently truncating an existing
  // file here — a mistyped --spill-path could name the very snapshot
  // being served — would destroy user data twice over.
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(
        "cannot create spill sidecar: " + path +
        " (a file already exists there, or the path is not writable; "
        "the sidecar refuses to overwrite — delete a stale sidecar or "
        "pick another --spill-path)");
  }
  // From here on the destructor removes the file (and the last holder
  // of the handle closes it), so a failed header write never leaves a
  // half-written sidecar behind.
  std::unique_ptr<EpochSpillFile> spill(new EpochSpillFile(
      std::make_shared<const SpillHandle>(fd, page_bytes, path)));
  std::byte header[12];
  std::memcpy(header, kSpillMagic, sizeof(kSpillMagic));
  std::memcpy(header + 4, &kSpillVersion, sizeof(kSpillVersion));
  std::memcpy(header + 8, &page_bytes, sizeof(page_bytes));
  const std::span<const std::byte> header_page(header);
  if (!spill->WriteRun(0, std::span(&header_page, 1)).ok()) {
    return Status::IOError("cannot write spill header: " + path);
  }
  return spill;
}

EpochSpillFile::EpochSpillFile(std::shared_ptr<const SpillHandle> file)
    : file_(std::move(file)),
      allocator_(std::make_shared<SpillPageAllocator>()),
      zero_page_(file_->page_bytes) {}

EpochSpillFile::~EpochSpillFile() {
  // Extents still held by spilled overlays may outlive us; they keep the
  // descriptor open, and the unlinked file stays readable through it.
  std::remove(path().c_str());
}

uint64_t EpochSpillFile::file_bytes() const {
  struct stat st;
  return ::fstat(file_->fd, &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                      : 0;
}

Result<std::shared_ptr<const SpillExtent>> EpochSpillFile::Write(
    std::span<const std::span<const std::byte>> pages) {
  // The extent owns its ids from the start: an early return below drops
  // it, which hands the ids straight back to the free list.
  auto extent = std::make_shared<const SpillExtent>(
      allocator_, allocator_->Allocate(pages.size()), file_);
  const std::span<const PageId> ids = extent->ids();
  for (size_t begin = 0, end = 0; begin < ids.size(); begin = end) {
    end = begin + 1;
    while (end < ids.size() && ids[end] == ids[end - 1] + 1) ++end;
    OCTOPUS_RETURN_NOT_OK(
        WriteRun(ids[begin], pages.subspan(begin, end - begin)));
  }
  pages_written_.fetch_add(ids.size(), std::memory_order_relaxed);
  return extent;
}

Status EpochSpillFile::WriteRun(
    PageId first, std::span<const std::span<const std::byte>> pages) {
  std::vector<iovec> iov;
  iov.reserve(2 * pages.size());
  const uint32_t page_bytes = file_->page_bytes;
  for (const std::span<const std::byte> page : pages) {
    assert(page.size() <= page_bytes && "entry bytes exceed the page");
    if (!page.empty()) {
      iov.push_back({const_cast<std::byte*>(page.data()), page.size()});
    }
    // Zero-pad to the full page, exactly like the OCT2 writer, so a
    // reloaded page is byte-identical to its resident twin.
    if (page.size() < page_bytes) {
      iov.push_back({const_cast<std::byte*>(zero_page_.data()),
                     page_bytes - page.size()});
    }
  }
  off_t offset = static_cast<off_t>(first) * page_bytes;
  for (size_t next = 0; next < iov.size();) {
    const int count =
        static_cast<int>(std::min<size_t>(iov.size() - next, IOV_MAX));
    const ssize_t written =
        ::pwritev(file_->fd, iov.data() + next, count, offset);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      return Status::IOError("spill write failed: " + path() + ": " +
                             (written < 0 ? std::strerror(errno)
                                          : "no progress"));
    }
    offset += written;
    AdvanceIov(&iov, &next, static_cast<size_t>(written));
  }
  return Status::OK();
}

}  // namespace octopus::storage
