// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/file_util.h"

namespace octopus::storage {

namespace {

constexpr char kMagic[4] = {'O', 'C', 'T', '2'};

/// Streams entries into fixed-size pages, zero-padding the tail of each
/// section's last page so sections always start on page boundaries.
class PageWriter {
 public:
  PageWriter(std::FILE* file, size_t page_bytes)
      : file_(file), page_(page_bytes, 0) {}

  bool Append(const void* data, size_t entry_bytes) {
    if (fill_ + entry_bytes > page_.size() && !FlushPage()) return false;
    std::memcpy(page_.data() + fill_, data, entry_bytes);
    fill_ += entry_bytes;
    return true;
  }

  /// Pads and writes the current page if it holds any data; the next
  /// `Append` then starts a fresh page.
  bool FinishSection() { return fill_ == 0 || FlushPage(); }

  uint64_t pages_written() const { return pages_written_; }

 private:
  bool FlushPage() {
    std::memset(page_.data() + fill_, 0, page_.size() - fill_);
    if (std::fwrite(page_.data(), 1, page_.size(), file_) != page_.size()) {
      return false;
    }
    fill_ = 0;
    ++pages_written_;
    return true;
  }

  std::FILE* file_;
  std::vector<unsigned char> page_;
  size_t fill_ = 0;
  uint64_t pages_written_ = 0;
};

template <typename T>
bool AppendSection(PageWriter* writer, std::span<const T> entries) {
  for (const T& e : entries) {
    if (!writer->Append(&e, sizeof(T))) return false;
  }
  return writer->FinishSection();
}

Status ValidateGeometry(const SnapshotHeader& h) {
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad snapshot magic (not an OCT2 file)");
  }
  if (h.version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(h.version));
  }
  if (h.page_bytes < kMinPageBytes || h.page_bytes > (1u << 24) ||
      h.page_bytes % sizeof(uint32_t) != 0) {
    return Status::Corruption("implausible page size " +
                              std::to_string(h.page_bytes));
  }
  if (h.num_vertices == 0 || h.num_vertices > (1ull << 33) ||
      h.num_adj_entries > (1ull << 40) ||
      h.num_surface_vertices > h.num_vertices) {
    return Status::Corruption("implausible mesh sizes in snapshot header");
  }
  // Recompute the section layout; the stored start pages must match.
  const uint64_t pos_pages =
      PagesForEntries(h.num_vertices, sizeof(Vec3), h.page_bytes);
  const uint64_t off_pages =
      PagesForEntries(h.num_vertices + 1, sizeof(uint32_t), h.page_bytes);
  const uint64_t adj_pages =
      PagesForEntries(h.num_adj_entries, sizeof(uint32_t), h.page_bytes);
  const uint64_t surf_pages = PagesForEntries(
      h.num_surface_vertices, sizeof(uint32_t), h.page_bytes);
  if (h.positions_start_page != 1 ||
      h.adj_offsets_start_page != 1 + pos_pages ||
      h.adj_start_page != h.adj_offsets_start_page + off_pages ||
      h.surface_start_page != h.adj_start_page + adj_pages ||
      h.num_pages != h.surface_start_page + surf_pages) {
    return Status::Corruption("inconsistent snapshot section layout");
  }
  return Status::OK();
}

}  // namespace

const char* LayoutName(SnapshotLayout layout) {
  switch (layout) {
    case SnapshotLayout::kOriginal:
      return "original";
    case SnapshotLayout::kHilbert:
      return "hilbert";
  }
  return "unknown";
}

uint64_t PagesForEntries(uint64_t entries, size_t entry_bytes,
                         size_t page_bytes) {
  const uint64_t per_page = page_bytes / entry_bytes;
  return (entries + per_page - 1) / per_page;
}

Status WriteSnapshot(std::span<const Vec3> positions,
                     std::span<const uint32_t> adj_offsets,
                     std::span<const VertexId> adj,
                     std::span<const VertexId> surface_vertices,
                     uint64_t num_tets, SnapshotLayout layout,
                     size_t page_bytes, const std::string& path) {
  // Same bounds ReadSnapshotHeader enforces: everything written must be
  // readable back (the upper bound also forecloses uint32 truncation of
  // the header field).
  if (page_bytes < kMinPageBytes || page_bytes > (1u << 24) ||
      page_bytes % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument(
        "page_bytes must be a multiple of 4 in [" +
        std::to_string(kMinPageBytes) + ", " +
        std::to_string(1u << 24) + "]");
  }
  if (positions.empty()) {
    return Status::InvalidArgument("refusing to snapshot an empty mesh");
  }
  if (adj_offsets.size() != positions.size() + 1 ||
      adj_offsets.back() != adj.size()) {
    return Status::InvalidArgument("CSR adjacency arrays are inconsistent");
  }

  SnapshotHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kSnapshotVersion;
  h.page_bytes = static_cast<uint32_t>(page_bytes);
  h.layout = static_cast<uint32_t>(layout);
  h.num_vertices = positions.size();
  h.num_adj_entries = adj.size();
  h.num_surface_vertices = surface_vertices.size();
  h.num_tets = num_tets;
  h.positions_start_page = 1;
  h.adj_offsets_start_page =
      h.positions_start_page +
      PagesForEntries(h.num_vertices, sizeof(Vec3), page_bytes);
  h.adj_start_page =
      h.adj_offsets_start_page +
      PagesForEntries(h.num_vertices + 1, sizeof(uint32_t), page_bytes);
  h.surface_start_page =
      h.adj_start_page +
      PagesForEntries(h.num_adj_entries, sizeof(uint32_t), page_bytes);
  h.num_pages = h.surface_start_page +
                PagesForEntries(h.num_surface_vertices, sizeof(uint32_t),
                                page_bytes);

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);

  PageWriter writer(f.get(), page_bytes);
  const bool ok = writer.Append(&h, sizeof(h)) && writer.FinishSection() &&
                  AppendSection(&writer, positions) &&
                  AppendSection(&writer, adj_offsets) &&
                  AppendSection(&writer, adj) &&
                  AppendSection(&writer, surface_vertices);
  if (!ok || writer.pages_written() != h.num_pages) {
    return Status::IOError("short write: " + path);
  }
  if (std::fflush(f.get()) != 0) {
    return Status::IOError("flush failed: " + path);
  }
  return Status::OK();
}

Result<SnapshotHeader> ReadSnapshotHeader(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);

  SnapshotHeader h{};
  if (std::fread(&h, 1, sizeof(h), f.get()) != sizeof(h)) {
    return Status::Corruption("truncated snapshot header in " + path);
  }
  OCTOPUS_RETURN_NOT_OK(ValidateGeometry(h));
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long size = std::ftell(f.get());
  if (size < 0 || static_cast<uint64_t>(size) != h.FileBytes()) {
    return Status::Corruption(
        "snapshot file size does not match header (" + path + ")");
  }
  return h;
}

Status VisitSnapshotPositions(
    const std::string& path, const SnapshotHeader& h,
    const std::function<void(std::span<const Vec3>)>& visit) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  const size_t per_page = h.PositionsPerPage();
  std::vector<Vec3> page_positions(
      static_cast<size_t>(std::min<uint64_t>(per_page, h.num_vertices)));
  uint64_t done = 0;
  for (uint64_t page = h.positions_start_page; done < h.num_vertices;
       ++page) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(per_page, h.num_vertices - done));
    if (std::fseek(f.get(), static_cast<long>(page * h.page_bytes),
                   SEEK_SET) != 0 ||
        std::fread(page_positions.data(), sizeof(Vec3), chunk, f.get()) !=
            chunk) {
      return Status::Corruption("truncated positions section in " + path);
    }
    visit(std::span<const Vec3>(page_positions.data(), chunk));
    done += chunk;
  }
  return Status::OK();
}

Status ReadSnapshotPositions(const std::string& path, const SnapshotHeader& h,
                             std::vector<Vec3>* out) {
  out->clear();
  out->reserve(h.num_vertices);
  return VisitSnapshotPositions(path, h, [out](std::span<const Vec3> page) {
    out->insert(out->end(), page.begin(), page.end());
  });
}

}  // namespace octopus::storage
