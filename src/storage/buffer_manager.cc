// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/buffer_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

namespace octopus::storage {

const char* EvictionName(BufferManager::Eviction eviction) {
  switch (eviction) {
    case BufferManager::Eviction::kLRU:
      return "lru";
    case BufferManager::Eviction::kClock:
      return "clock";
  }
  return "unknown";
}

Result<std::unique_ptr<BufferManager>> BufferManager::Open(
    const std::string& path, size_t page_bytes, uint64_t num_pages,
    const Options& options) {
  if (page_bytes == 0 || num_pages == 0) {
    return Status::InvalidArgument("empty page geometry");
  }
  if (options.pool_bytes < 2 * page_bytes) {
    return Status::InvalidArgument(
        "buffer pool must cover at least 2 pages (" +
        std::to_string(2 * page_bytes) + " bytes)");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open for read: " + path);
  }
  return std::unique_ptr<BufferManager>(
      new BufferManager(fd, page_bytes, num_pages, options));
}

BufferManager::BufferManager(int fd, size_t page_bytes, uint64_t num_pages,
                             const Options& options)
    : options_(options),
      page_bytes_(page_bytes),
      max_frames_(options.pool_bytes / page_bytes),
      num_pages_(num_pages),
      fd_(fd) {
  // Frames allocate lazily; only pre-reserve bookkeeping for pools that
  // plausibly fill (a generous cap can exceed the snapshot many times
  // over): every frame holds a distinct page, so there are never more
  // frames than pages.
  const size_t frames = std::min<size_t>(max_frames_, num_pages);
  frames_.reserve(frames);
  lru_.Grow(frames);
  page_table_.Reset(2 * frames);
}

BufferManager::~BufferManager() { ::close(fd_); }

size_t BufferManager::AllocatedBytes() const {
  common::MutexLock lock(mu_);
  return frames_.size() * page_bytes_;
}

PageIOStats BufferManager::TotalStats() const {
  common::MutexLock lock(mu_);
  return totals_;
}

size_t BufferManager::PickVictim() {
  if (options_.eviction == Eviction::kLRU) {
    // The least recently used unpinned frame: walk from the list head
    // past pinned frames only.
    for (uint32_t i = lru_.head(); i != kNoIndex; i = lru_.next(i)) {
      if (frames_[i].pins == 0) return i;
    }
    return max_frames_;
  }
  // Clock: sweep at most two full revolutions (the first clears
  // referenced bits, the second then finds any unpinned frame).
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& frame = frames_[clock_hand_];
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (frame.pins != 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    return index;
  }
  return max_frames_;  // everything pinned
}

size_t BufferManager::TryAcquireFrame(PageIOStats* stats) {
  if (frames_.size() < max_frames_) {
    // Grow lazily; total frame memory stays under the byte cap.
    frames_.emplace_back();
    frames_.back().data = std::make_unique<std::byte[]>(page_bytes_);
    assert(frames_.size() * page_bytes_ <= options_.pool_bytes);
    assert(2 * frames_.size() <= page_table_.num_slots());
    const auto index = static_cast<uint32_t>(frames_.size() - 1);
    lru_.PushBack(index);
    return index;
  }
  const size_t victim = PickVictim();
  if (victim != max_frames_) {
    Frame& frame = frames_[victim];
    if (frame.page != kInvalidPageId) {
      EraseFromPageTable(static_cast<uint32_t>(victim));
      ++stats->page_evictions;
      ++totals_.page_evictions;
    }
  }
  return victim;
}

void BufferManager::EraseFromPageTable(uint32_t index) {
  const std::vector<Frame>& frames = frames_;
  page_table_.Erase(frames[index].page, index, [&frames](uint32_t i) {
    return uint64_t{frames[i].page};
  });
  frames_[index].page = kInvalidPageId;
}

void BufferManager::ReadPage(PageId page, Frame* frame) {
  // Read under the lock: serialized I/O is fine at reproduction scale.
  size_t done = 0;
  while (done < page_bytes_) {
    const ssize_t n =
        ::pread(fd_, frame->data.get() + done, page_bytes_ - done,
                static_cast<off_t>(page * page_bytes_ + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  if (done != page_bytes_) {
    // The writer pads every page to full size, so a short read means
    // the file was truncated after open — unrecoverable mid-query.
    assert(false && "snapshot page read failed");
    std::memset(frame->data.get(), 0, page_bytes_);
  }
}

const std::byte* BufferManager::PinHit(uint32_t index, PageIOStats* stats) {
  Frame& frame = frames_[index];
  ++frame.pins;
  lru_.Touch(index);
  frame.referenced = true;
  ++stats->page_hits;
  ++totals_.page_hits;
  return frame.data.get();
}

const std::byte* BufferManager::PinLoad(PageId page, uint32_t index,
                                        PageIOStats* stats) {
  Frame& frame = frames_[index];
  ReadPage(page, &frame);
  frame.page = page;
  frame.pins = 1;
  lru_.Touch(index);
  frame.referenced = true;
  page_table_.Insert(page, index);
  ++stats->page_misses;
  ++totals_.page_misses;
  return frame.data.get();
}

const std::byte* BufferManager::Pin(PageId page, PageIOStats* stats) {
  common::MutexLock lock(mu_);
  assert(page < num_pages_ && "page out of range");
  for (;;) {
    if (const uint32_t hit = FindFrame(page); hit != kNoIndex) {
      return PinHit(hit, stats);
    }
    const size_t index = TryAcquireFrame(stats);
    if (index == max_frames_) {
      // Every frame pinned by other threads: wait for an Unpin, then
      // RE-PROBE the page table — another thread may have loaded this
      // very page meanwhile, and loading it twice would alias two
      // frames to one page and corrupt the pin bookkeeping. Readers
      // hold at most one transient pin each, so a frame frees up
      // quickly and no pin is ever held while waiting (no deadlock).
      frame_freed_.Wait(mu_);
      continue;
    }
    return PinLoad(page, static_cast<uint32_t>(index), stats);
  }
}

const std::byte* BufferManager::TryPin(PageId page, PageIOStats* stats) {
  common::MutexLock lock(mu_);
  assert(page < num_pages_ && "page out of range");
  if (const uint32_t hit = FindFrame(page); hit != kNoIndex) {
    return PinHit(hit, stats);
  }
  const size_t index = TryAcquireFrame(stats);
  if (index == max_frames_) return nullptr;  // every frame pinned
  return PinLoad(page, static_cast<uint32_t>(index), stats);
}

void BufferManager::Unpin(PageId page) {
  common::MutexLock lock(mu_);
  const uint32_t index = FindFrame(page);
  assert(index != kNoIndex && "unpin of a non-resident page");
  Frame& frame = frames_[index];
  assert(frame.pins > 0 && "unpin of an unpinned page");
  if (--frame.pins == 0) frame_freed_.NotifyOne();
}

std::optional<uint32_t> BufferManager::PinCount(PageId page) const {
  common::MutexLock lock(mu_);
  const uint32_t index = FindFrame(page);
  if (index == kNoIndex) return std::nullopt;
  return frames_[index].pins;
}

void BufferManager::CopyOut(PageId page, size_t offset, size_t len,
                            void* dst, PageIOStats* stats) {
  assert(offset + len <= page_bytes_);
  {
    // Hit fast path: one lock acquisition and one table lookup instead
    // of the Pin/Unpin pair's two of each; the memcpy runs outside the
    // mutex, under the pin. The frame is re-addressed by index after
    // relocking (the frames_ vector may have grown and relocated; the
    // index and the heap page buffer are stable, pinned frames are
    // never evicted or repurposed).
    common::MutexLock lock(mu_);
    if (const uint32_t index = FindFrame(page); index != kNoIndex) {
      const std::byte* data = PinHit(index, stats);
      lock.Unlock();
      std::memcpy(dst, data + offset, len);
      lock.Lock();
      if (--frames_[index].pins == 0) frame_freed_.NotifyOne();
      return;
    }
  }
  const std::byte* data = Pin(page, stats);
  std::memcpy(dst, data + offset, len);
  Unpin(page);
}

}  // namespace octopus::storage
