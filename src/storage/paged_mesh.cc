// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/paged_mesh.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "storage/file_util.h"
#include "storage/mesh_accessor.h"

namespace octopus::storage {

static_assert(MeshAccessor<PagedMeshAccessor>,
              "the paged accessor must satisfy the query-core concept");

namespace {

/// Sequentially reads a paged uint32 section (entries are page-packed,
/// never straddling a boundary).
Status ReadU32Section(std::FILE* f, const SnapshotHeader& h,
                      uint64_t start_page, uint64_t count,
                      std::vector<uint32_t>* out) {
  out->resize(count);
  const size_t per_page = h.U32PerPage();
  uint64_t done = 0;
  for (uint64_t page = start_page; done < count; ++page) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(per_page, count - done));
    if (std::fseek(f, static_cast<long>(page * h.page_bytes), SEEK_SET) !=
            0 ||
        std::fread(out->data() + done, sizeof(uint32_t), chunk, f) !=
            chunk) {
      return Status::Corruption("truncated snapshot section");
    }
    done += chunk;
  }
  return Status::OK();
}

/// Gathers the base positions of the surface vertices with one forward
/// pass over the positions section (the id list is ascending, so each
/// page is read at most once, through a single page-sized buffer).
Status GatherSurfacePositions(std::FILE* f, const SnapshotHeader& h,
                              const std::vector<VertexId>& surface,
                              std::vector<Vec3>* out) {
  out->clear();
  out->reserve(surface.size());
  const size_t per_page = h.PositionsPerPage();
  std::vector<Vec3> page(per_page);
  uint64_t loaded = ~0ull;
  for (VertexId v : surface) {
    const uint64_t index = v / per_page;
    if (index != loaded) {
      const uint64_t begin = index * per_page;
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(per_page, h.num_vertices - begin));
      if (std::fseek(f,
                     static_cast<long>((h.positions_start_page + index) *
                                       h.page_bytes),
                     SEEK_SET) != 0 ||
          std::fread(page.data(), sizeof(Vec3), chunk, f) != chunk) {
        return Status::Corruption("truncated positions section");
      }
      loaded = index;
    }
    out->push_back(page[v % per_page]);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PagedMeshStore>> PagedMeshStore::Open(
    const std::string& path, const BufferManager::Options& options) {
  auto header = ReadSnapshotHeader(path);
  if (!header.ok()) return header.status();
  const SnapshotHeader& h = header.Value();

  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  std::vector<VertexId> surface;
  OCTOPUS_RETURN_NOT_OK(ReadU32Section(f.get(), h, h.surface_start_page,
                                       h.num_surface_vertices, &surface));
  for (size_t i = 0; i < surface.size(); ++i) {
    if (surface[i] >= h.num_vertices ||
        (i > 0 && surface[i] <= surface[i - 1])) {
      return Status::Corruption(
          "surface vertex list not strictly ascending in-range in " + path);
    }
  }
  std::vector<Vec3> surface_positions;
  OCTOPUS_RETURN_NOT_OK(
      GatherSurfacePositions(f.get(), h, surface, &surface_positions));

  auto buffer =
      BufferManager::Open(path, h.page_bytes, h.num_pages, options);
  if (!buffer.ok()) return buffer.status();
  return std::unique_ptr<PagedMeshStore>(
      new PagedMeshStore(h, std::move(surface), std::move(surface_positions),
                         buffer.MoveValue()));
}

void PagedMeshAccessor::ConfigureLeases(size_t shards) {
  // Per-shard frame budget: with `shards` accessors sharing the pool,
  // each may hold at most (frames/shards - 2) lease pins, leaving two
  // frames of per-shard headroom for transient pins. Lease pins alone
  // can then never exhaust the pool, which is what makes "never block
  // while leasing" a liveness guarantee and not just a policy.
  const size_t per_shard = store_->buffer_manager()->max_frames() /
                           std::max<size_t>(shards, 1);
  lease_cap_ =
      per_shard > 2 ? std::min(kDefaultLeaseCap, per_shard - 2) : 0;
  zero_copy_ = lease_cap_ >= kMinLeasesForZeroCopy;
  if (lease_cap_ > 0 && lease_table_.num_slots() == 0) {
    lease_table_.Reset(2 * kDefaultLeaseCap);
    lease_lru_.Grow(kDefaultLeaseCap);
    for (uint32_t i = 0; i < kDefaultLeaseCap; ++i) {
      free_[i] = kDefaultLeaseCap - 1 - i;
    }
  }
}

void PagedMeshAccessor::BeginBatch(
    std::span<const std::byte* const> position_pages, size_t shards) {
  EndBatch();
  pages_ = position_pages;
  if (touched_.size() < pages_.size()) touched_.resize(pages_.size(), 0);
  ConfigureLeases(shards);
}

void PagedMeshAccessor::EndBatch() {
  pages_ = {};
  span_page_ = kInvalidPageId;
  ReleaseLeases(false);
  degraded_ = false;
  last_prefetch_page_ = ~0ull;
  if (++batch_stamp_ == 0) {
    // Wrapped: no page may keep a stamp a later batch reuses.
    std::fill(page_stamps_.begin(), page_stamps_.end(), 0u);
    batch_stamp_ = 1;
  }
  std::fill(touched_.begin(), touched_.end(), static_cast<uint8_t>(0));
}

void PagedMeshAccessor::TouchEpochPage(uint32_t index,
                                       const std::byte* page) {
  touched_[index] = 1;
  ++stats_->page_hits;
  if (lease_cap_ != 0) {
    ++stats_->pages_leased;
    ++stats_->pages_distinct;
    // Epoch bytes are stable for the batch: position()'s MRU may serve
    // this page directly from them.
    pos_mru_index_ = index;
    pos_mru_data_ = page;
  }
}

void PagedMeshAccessor::ReadEpochPage(uint32_t index, const std::byte* page,
                                      size_t offset, Vec3* dst) {
  if (lease_cap_ == 0) {
    // Pre-lease pricing: every epoch-page read is a pool hit.
    ++stats_->page_hits;
  } else if (touched_[index] == 0) {
    TouchEpochPage(index, page);
  } else {
    ++stats_->lease_hits;
    pos_mru_index_ = index;
    pos_mru_data_ = page;
  }
  std::memcpy(dst, page + offset, sizeof(Vec3));
}

PagedMeshAccessor::Lease* PagedMeshAccessor::FindLease(PageId page) {
  if (count_ == 0) return nullptr;
  const std::array<Lease, kDefaultLeaseCap>& leases = leases_;
  const uint32_t index = lease_table_.Find(
      page, [&leases, page](uint32_t i) { return leases[i].page == page; });
  return index == kNoIndex ? nullptr : &leases_[index];
}

const std::byte* PagedMeshAccessor::AcquireLease(PageId page,
                                                 bool speculative) {
  const std::byte* data = store_->buffer_manager()->TryPin(page, stats_);
  if (data == nullptr) {
    // Pool pressure (every frame pinned). Degrade to transient pins for
    // the rest of the batch rather than ever blocking while holding
    // leases; a speculative prefetch is simply dropped.
    if (!speculative) {
      degraded_ = true;
      stats_->lease_revocations += count_;
      ReleaseLeases(true);
      // Leases that survived the release (the protected span's) were
      // not revoked after all.
      stats_->lease_revocations -= count_;
    }
    return nullptr;
  }
  ++stats_->pages_leased;
  NoteDistinct(page);
  InsertLease(page, data);
  return data;
}

void PagedMeshAccessor::InsertLease(PageId page, const std::byte* data) {
  if (count_ == lease_cap_) RevokeLRU();
  const uint32_t index = free_[kDefaultLeaseCap - 1 - count_];
  ++count_;
  leases_[index] = Lease{data, page};
  lease_table_.Insert(page, index);
  lease_lru_.PushBack(index);
  mru_ = &leases_[index];
}

void PagedMeshAccessor::RevokeLRU() {
  ++stats_->lease_revocations;
  // The position fast path may alias the victim's frame; reset it.
  pos_mru_index_ = ~0ull;
  pos_mru_data_ = nullptr;
  // The least recently used lease, unless it backs the outstanding span
  // (revocation-protected): then the one after it.
  uint32_t victim = lease_lru_.head();
  if (victim != kNoIndex && IsSpanLease(leases_[victim])) {
    victim = lease_lru_.next(victim);
  }
  assert(victim != kNoIndex &&
         "lease cap must exceed the (single) protected span");
  if (mru_ == &leases_[victim]) mru_ = nullptr;
  store_->buffer_manager()->Unpin(leases_[victim].page);
  DropLease(victim);
}

void PagedMeshAccessor::DropLease(uint32_t index) {
  const std::array<Lease, kDefaultLeaseCap>& leases = leases_;
  lease_table_.Erase(leases[index].page, index, [&leases](uint32_t i) {
    return uint64_t{leases[i].page};
  });
  lease_lru_.Remove(index);
  leases_[index] = Lease{};
  --count_;
  free_[kDefaultLeaseCap - 1 - count_] = index;
}

void PagedMeshAccessor::ReleaseLeases(bool keep_span) {
  mru_ = nullptr;
  pos_mru_index_ = ~0ull;
  pos_mru_data_ = nullptr;
  for (uint32_t i = lease_lru_.head(); i != kNoIndex;) {
    const uint32_t next = lease_lru_.next(i);
    if (keep_span && IsSpanLease(leases_[i])) {
      // Keep this pin; the caller's span aliases its frame.
      mru_ = &leases_[i];
    } else {
      store_->buffer_manager()->Unpin(leases_[i].page);
      DropLease(i);
    }
    i = next;
  }
}

void PagedMeshAccessor::ReadPooled(PageId page, size_t offset, size_t len,
                                   void* dst) {
  if (lease_cap_ != 0 && !degraded_) {
    if (Lease* l = mru_; l != nullptr && l->page == page) {
      TouchLease(l);
      ++stats_->lease_hits;
      std::memcpy(dst, l->data + offset, len);
      return;
    }
    if (Lease* l = FindLease(page)) {
      TouchLease(l);
      ++stats_->lease_hits;
      mru_ = l;
      std::memcpy(dst, l->data + offset, len);
      return;
    }
    if (const std::byte* data = AcquireLease(page, false)) {
      std::memcpy(dst, data + offset, len);
      return;
    }
  }
  TransientRead(page, offset, len, dst);
}

void PagedMeshAccessor::TransientRead(PageId page, size_t offset,
                                      size_t len, void* dst) {
  BufferManager* pool = store_->buffer_manager();
  if (lease_cap_ == 0) {
    // Leasing disabled (tiny pool): the pre-lease behavior exactly.
    pool->CopyOut(page, offset, len, dst, stats_);
    return;
  }
  NoteDistinct(page);
  if (const std::byte* data = pool->TryPin(page, stats_)) {
    std::memcpy(dst, data + offset, len);
    pool->Unpin(page);
    return;
  }
  // Must block for a frame — never while holding leases (blocked
  // threads pinning frames could starve each other on a tiny pool). At
  // most the zero-copy span's pin survives: zero-copy implies a
  // per-shard budget of >= kMinLeasesForZeroCopy + 2 frames, so span
  // pins total strictly fewer than the pool's frames and some running
  // thread always holds a releasable pin — progress is guaranteed.
  ReleaseLeases(true);
  pool->CopyOut(page, offset, len, dst, stats_);
}

void PagedMeshAccessor::PrefetchPosition(VertexId v) {
  if (lease_cap_ == 0 || degraded_) return;
  const uint32_t page_index = pos_div_.Div(v);
  if (page_index == last_prefetch_page_) return;
  last_prefetch_page_ = page_index;
  if (page_index < pages_.size() && pages_[page_index] != nullptr) {
    return;  // an epoch page is already memory
  }
  if (count_ >= lease_cap_) return;  // never revoke for speculation
  const PageId page = static_cast<PageId>(
      store_->header().positions_start_page + page_index);
  if (FindLease(page) != nullptr) return;
  AcquireLease(page, /*speculative=*/true);
}

uint32_t PagedMeshAccessor::ReadU32(uint64_t section_start_page,
                                    uint64_t index) {
  // Section entry counts fit 32 bits (CSR offsets are u32), so the
  // reciprocal divide is exact.
  const uint32_t n = static_cast<uint32_t>(index);
  const uint32_t page_index = u32_div_.Div(n);
  uint32_t value = 0;
  ReadPooled(static_cast<PageId>(section_start_page + page_index),
             u32_div_.Rem(n, page_index) * sizeof(uint32_t),
             sizeof(uint32_t), &value);
  return value;
}

std::span<const VertexId> PagedMeshAccessor::neighbors(VertexId v) {
  const SnapshotHeader& h = store_->header();
  const size_t per_page = h.U32PerPage();
  // This call invalidates the previous span (accessor contract), so its
  // lease loses revocation protection up front.
  span_page_ = kInvalidPageId;

  // CSR offsets for v and v+1; one page access when they share a page
  // (the common case), two otherwise.
  uint32_t range[2];
  const uint32_t offsets_page = u32_div_.Div(v);
  if (offsets_page == u32_div_.Div(v + 1)) {
    ReadPooled(static_cast<PageId>(h.adj_offsets_start_page + offsets_page),
               u32_div_.Rem(v, offsets_page) * sizeof(uint32_t),
               2 * sizeof(uint32_t), range);
  } else {
    range[0] = ReadU32(h.adj_offsets_start_page, v);
    range[1] = ReadU32(h.adj_offsets_start_page, v + 1);
  }

  const size_t degree = range[1] - range[0];
  if (zero_copy_ && !degraded_ && degree != 0) {
    const uint32_t entry = range[0];
    const uint32_t entry_page = u32_div_.Div(entry);
    const size_t within = u32_div_.Rem(entry, entry_page);
    if (within + degree <= per_page) {
      // The whole run lives on one adjacency page: hand out a span
      // aliasing the leased frame bytes directly — no memcpy. The
      // lease is revocation-protected until the next neighbors() call
      // (position() calls never invalidate the span).
      const PageId page =
          static_cast<PageId>(h.adj_start_page + entry_page);
      const std::byte* data = nullptr;
      if (Lease* l = FindLease(page)) {
        TouchLease(l);
        ++stats_->lease_hits;
        mru_ = l;
        data = l->data;
      } else {
        data = AcquireLease(page, false);
      }
      if (data != nullptr) {
        span_page_ = page;
        return {reinterpret_cast<const VertexId*>(
                    data + within * sizeof(uint32_t)),
                degree};
      }
    }
  }

  scratch_.resize(degree);
  // Copy the neighbor list page chunk by page chunk (a list rarely spans
  // more than one adjacency page).
  size_t done = 0;
  while (done < degree) {
    const uint64_t entry = range[0] + done;
    const size_t within = entry % per_page;
    const size_t chunk = std::min(degree - done, per_page - within);
    ReadPooled(static_cast<PageId>(h.adj_start_page + entry / per_page),
               within * sizeof(uint32_t), chunk * sizeof(uint32_t),
               scratch_.data() + done);
    done += chunk;
  }
  return scratch_;
}

}  // namespace octopus::storage
