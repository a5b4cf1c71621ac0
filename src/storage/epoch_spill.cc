// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/epoch_spill.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/snapshot.h"

namespace octopus::storage {

namespace {
constexpr char kSpillMagic[4] = {'O', 'C', '2', 'D'};
constexpr uint32_t kSpillVersion = 1;
}  // namespace

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
  // Exclusive create ("x"): the sidecar owns its path for the length
  // of the run and deletes it on close, so silently truncating an
  // existing file here — a mistyped --spill-path could name the very
  // snapshot being served — would destroy user data twice over.
  FilePtr file = OpenFile(path, "w+bx");
  if (!file) {
    return Status::IOError(
        "cannot create spill sidecar: " + path +
        " (a file already exists there, or the path is not writable; "
        "the sidecar refuses to overwrite — delete a stale sidecar or "
        "pick another --spill-path)");
  }
  std::vector<unsigned char> header(page_bytes, 0);
  std::memcpy(header.data(), kSpillMagic, sizeof(kSpillMagic));
  std::memcpy(header.data() + 4, &kSpillVersion, sizeof(kSpillVersion));
  std::memcpy(header.data() + 8, &page_bytes, sizeof(page_bytes));
  if (std::fwrite(header.data(), 1, page_bytes, file.get()) != page_bytes ||
      std::fflush(file.get()) != 0) {
    file.reset();
    std::remove(path.c_str());  // never leave a half-written sidecar
    return Status::IOError("cannot write spill header: " + path);
  }
  BufferManager::Options options;
  options.pool_bytes = pool_bytes;
  auto pool = BufferManager::Open(path, page_bytes, /*num_pages=*/1,
                                  options);
  if (!pool.ok()) {
    file.reset();
    std::remove(path.c_str());
    return pool.status();
  }
  return std::unique_ptr<EpochSpillFile>(new EpochSpillFile(
      path, page_bytes, std::move(file),
      std::shared_ptr<BufferManager>(pool.MoveValue())));
}

EpochSpillFile::~EpochSpillFile() {
  file_.reset();
  // The pool (and any spilled overlay still holding it) may outlive us;
  // on POSIX the unlinked file stays readable through its open handle.
  std::remove(path_.c_str());
}

Result<PageId> EpochSpillFile::AppendPage(std::span<const std::byte> bytes) {
  assert(bytes.size() <= page_bytes_ && "entry bytes exceed the page");
  const PageId id = static_cast<PageId>(next_page_);
  if (std::fseek(file_.get(),
                 static_cast<long>(next_page_ * page_bytes_),
                 SEEK_SET) != 0 ||
      std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
          bytes.size()) {
    return Status::IOError("spill append failed: " + path_);
  }
  // Zero-pad to the full page, exactly like the OCT2 writer, so a
  // reloaded page is byte-identical to its resident twin.
  if (bytes.size() < page_bytes_) {
    const std::vector<unsigned char> pad(page_bytes_ - bytes.size(), 0);
    if (std::fwrite(pad.data(), 1, pad.size(), file_.get()) != pad.size()) {
      return Status::IOError("spill pad failed: " + path_);
    }
  }
  ++next_page_;
  return id;
}

Status EpochSpillFile::Sync() {
  if (std::fflush(file_.get()) != 0) {
    return Status::IOError("spill flush failed: " + path_);
  }
  pool_->ExtendTo(next_page_);
  return Status::OK();
}

}  // namespace octopus::storage
