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

Result<std::unique_ptr<EpochSpillFile>> EpochSpillFile::Create(
    const std::string& path, uint32_t page_bytes, size_t pool_bytes) {
  if (page_bytes < kMinPageBytes || page_bytes > (1u << 24)) {
    return Status::InvalidArgument("implausible spill page size " +
                                   std::to_string(page_bytes));
  }
  if (pool_bytes < 2 * static_cast<size_t>(page_bytes)) {
    return Status::InvalidArgument(
        "spill pool must cover at least 2 pages (" +
        std::to_string(2 * static_cast<size_t>(page_bytes)) + " bytes)");
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
  BufferManager::Options options;
  options.pool_bytes = pool_bytes;
  auto pool = BufferManager::Open(path, page_bytes, /*num_pages=*/1,
                                  options);
  if (!pool.ok()) {
    ::close(fd);
    std::remove(path.c_str());
    return pool.status();
  }
  // From here on the destructor closes and removes the file, so a
  // failed header write never leaves a half-written sidecar behind.
  std::unique_ptr<EpochSpillFile> spill(new EpochSpillFile(
      path, page_bytes, fd,
      std::shared_ptr<BufferManager>(pool.MoveValue())));
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

EpochSpillFile::EpochSpillFile(std::string path, uint32_t page_bytes, int fd,
                               std::shared_ptr<BufferManager> pool)
    : path_(std::move(path)),
      page_bytes_(page_bytes),
      fd_(fd),
      pool_(std::move(pool)),
      allocator_(std::make_shared<SpillPageAllocator>()),
      zero_page_(page_bytes) {}

EpochSpillFile::~EpochSpillFile() {
  ::close(fd_);
  // The pool (and any spilled overlay still holding it) may outlive us;
  // on POSIX the unlinked file stays readable through its open handle.
  std::remove(path_.c_str());
}

uint64_t EpochSpillFile::file_bytes() const {
  struct stat st;
  return ::fstat(fd_, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

Result<std::shared_ptr<const SpillExtent>> EpochSpillFile::Write(
    std::span<const std::span<const std::byte>> pages) {
  // The extent owns its ids from the start: an early return below drops
  // it, which hands the ids straight back to the free list.
  auto extent = std::make_shared<const SpillExtent>(
      allocator_, allocator_->Allocate(pages.size()), pool_);
  const std::span<const PageId> ids = extent->ids();
  for (size_t begin = 0, end = 0; begin < ids.size(); begin = end) {
    end = begin + 1;
    while (end < ids.size() && ids[end] == ids[end - 1] + 1) ++end;
    OCTOPUS_RETURN_NOT_OK(
        WriteRun(ids[begin], pages.subspan(begin, end - begin)));
  }
  // A recycled id may still sit in the pool with the previous owner's
  // bytes; drop those frames before anyone can read the new ones.
  for (const PageId id : ids) pool_->Discard(id);
  if (!ids.empty()) pool_->ExtendTo(uint64_t{ids.back()} + 1);
  pages_written_.fetch_add(ids.size(), std::memory_order_relaxed);
  return extent;
}

Status EpochSpillFile::WriteRun(
    PageId first, std::span<const std::span<const std::byte>> pages) {
  std::vector<iovec> iov;
  iov.reserve(2 * pages.size());
  for (const std::span<const std::byte> page : pages) {
    assert(page.size() <= page_bytes_ && "entry bytes exceed the page");
    if (!page.empty()) {
      iov.push_back({const_cast<std::byte*>(page.data()), page.size()});
    }
    // Zero-pad to the full page, exactly like the OCT2 writer, so a
    // reloaded page is byte-identical to its resident twin.
    if (page.size() < page_bytes_) {
      iov.push_back({const_cast<std::byte*>(zero_page_.data()),
                     page_bytes_ - page.size()});
    }
  }
  off_t offset = static_cast<off_t>(first) * page_bytes_;
  for (size_t next = 0; next < iov.size();) {
    const int count =
        static_cast<int>(std::min<size_t>(iov.size() - next, IOV_MAX));
    const ssize_t written = ::pwritev(fd_, iov.data() + next, count, offset);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      return Status::IOError("spill write failed: " + path_ + ": " +
                             (written < 0 ? std::strerror(errno)
                                          : "no progress"));
    }
    // A short write resumes mid-vector: skip what landed, trim the
    // partially written entry.
    offset += written;
    for (size_t left = static_cast<size_t>(written); left > 0;) {
      if (left >= iov[next].iov_len) {
        left -= iov[next].iov_len;
        ++next;
      } else {
        iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + left;
        iov[next].iov_len -= left;
        left = 0;
      }
    }
  }
  return Status::OK();
}

}  // namespace octopus::storage
