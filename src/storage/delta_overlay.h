// Copyright 2026 The OCTOPUS Reproduction Authors
// Position epochs as delta pages: the one representation of a published
// epoch on both backends. Deformation moves vertices but never touches
// connectivity, so an epoch is fully described by the position pages
// that differ from a base. A `PositionOverlay` is the immutable set of
// those pages for one epoch: epochs share unchanged pages structurally
// (copy-on-write) and readers fall back to the base for pages the
// overlay does not cover.
//
// On the paged backend the base is the OCT2 snapshot, the step-0
// source of truth, and a step rewrites only the position pages whose
// bytes changed; paged readers consult the overlay before the buffer
// pool. In memory there is no base file (the mesh array is the live
// simulation state), so every overlay covers every page, and the
// executor reads a flat copy (`CopyPositions`).
//
// An overlay's pages live in one of two places: in memory (the hot,
// recent epochs) or in an on-disk spill sidecar reached through a
// `BufferManager` (epochs past the retention window — see
// storage/epoch_spill.h). Readers go through `ReadBytes`, which hides
// the distinction; spilled reads are priced into the caller's
// `PageIOStats` exactly like base-snapshot reads. A spilled overlay
// holds the `SpillExtent` owning its sidecar pages, so they are
// recycled only once the last reader of the epoch lets go.
#ifndef OCTOPUS_STORAGE_DELTA_OVERLAY_H_
#define OCTOPUS_STORAGE_DELTA_OVERLAY_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/vec3.h"
#include "storage/buffer_manager.h"
#include "storage/epoch_spill.h"
#include "storage/page.h"

namespace octopus::storage {

/// \brief Immutable per-epoch overlay of rewritten position pages.
///
/// Entry `i` covers position page `i` (on the paged backend, absolute
/// snapshot page `positions_start_page + i`); an entry with no bytes
/// (memory or spilled) means "read the base snapshot (or, transitively,
/// nothing ever rewrote this page)". Page content is byte-identical to
/// what an OCT2 writer would emit for the same positions (entries never
/// straddle a page, zero-padded tail), so overlay reads and base reads
/// are interchangeable. Resident pages store only their entry bytes (the
/// zero pad is implicit), so `resident_bytes` counts actual data, not
/// page capacity.
class PositionOverlay {
 public:
  using PageBytes = std::vector<std::byte>;

  /// Bytes of *memory-resident* position page `index` (relative to the
  /// positions section), or null when the page is not resident here
  /// (never rewritten, or spilled to disk — use `ReadBytes`).
  const std::byte* Lookup(uint64_t index) const {
    return index < pages_.size() && pages_[index] != nullptr
               ? pages_[index]->data()
               : nullptr;
  }

  /// True when the overlay holds bytes for page `index` at all —
  /// resident or spilled. The inline hot-path test: probe and position
  /// reads check this before paying an out-of-line overlay read, so
  /// pages the simulation never rewrote cost two loads, not a call.
  bool Covers(uint64_t index) const {
    return (index < pages_.size() && pages_[index] != nullptr) ||
           (index < spilled_.size() && spilled_[index] != kInvalidPageId);
  }

  /// Copies `len` bytes at `offset` within overlay page `index` into
  /// `dst`. Returns false when the overlay has no bytes for that page
  /// (caller reads the base snapshot). Resident pages count a pool hit;
  /// spilled pages read through the sidecar's buffer pool and count
  /// hits/misses/evictions there — spill reload I/O is priced, not
  /// hidden. `offset + len` must stay within the page's entry bytes.
  bool ReadBytes(uint64_t index, size_t offset, size_t len, void* dst,
                 PageIOStats* stats) const;

  /// Pages this overlay holds fresh bytes for in memory (shared or
  /// owned); spilled pages are not resident.
  size_t resident_pages() const {
    size_t n = 0;
    for (const auto& page : pages_) n += page != nullptr ? 1 : 0;
    return n;
  }

  /// Entry bytes actually held in memory (tail pages count their real
  /// content, not the page capacity they would occupy on disk).
  size_t resident_bytes() const;

  /// Pages served from the spill sidecar instead of memory.
  size_t spilled_pages() const {
    size_t n = 0;
    for (const PageId id : spilled_) n += id != kInvalidPageId ? 1 : 0;
    return n;
  }

  /// Number of overlay page slots (== position pages of the snapshot).
  size_t num_page_slots() const {
    return std::max(pages_.size(), spilled_.size());
  }

  /// Sidecar page id of `index` when spilled, else `kInvalidPageId`.
  PageId spilled_id(uint64_t index) const {
    return index < spilled_.size() ? spilled_[index] : kInvalidPageId;
  }

  /// The sidecar's read pool (null while nothing is spilled) — exposed
  /// so `PagedMeshAccessor` can lease spilled delta pages through the
  /// same mechanism as base-snapshot pages instead of paying a
  /// `CopyOut` pin round trip per read.
  BufferManager* spill_pool() const {
    return extent_ != nullptr ? extent_->pool() : nullptr;
  }

  /// Entry bytes of memory-resident page `index` (0 when not resident).
  size_t resident_page_bytes(uint64_t index) const {
    return index < pages_.size() && pages_[index] != nullptr
               ? pages_[index]->size()
               : 0;
  }

  /// Copies the whole epoch into `out` (one entry per vertex). Resident
  /// pages are plain memory copies and count nothing; spilled pages read
  /// through the sidecar pool and price their I/O into `stats`. The
  /// overlay must cover every page — true of in-memory epochs, whose
  /// diff base is empty.
  void CopyPositions(std::span<Vec3> out, PageIOStats* stats) const;

  /// Derives the next epoch's overlay for `positions` (`num_vertices`
  /// entries packed `page_bytes / 12` to a page, like an OCT2 positions
  /// section). Each page is compared with `prev`'s bytes where `prev`
  /// covers it, else with `base`: equal pages are shared with `prev`
  /// (or left to the base), changed ones get fresh bytes. `prev` is the
  /// newest epoch, which retention never spills, so it must be fully
  /// resident; it may be null (the first epoch). An empty `base` means
  /// there is none: every page `prev` does not cover is fresh. Returns
  /// the overlay plus, via `pages_rewritten`, how many pages got fresh
  /// bytes this step — the delta the paper's out-of-core story prices.
  static std::shared_ptr<const PositionOverlay> BuildNext(
      size_t num_vertices, size_t page_bytes, const PositionOverlay* prev,
      std::span<const Vec3> base, std::span<const Vec3> positions,
      size_t* pages_rewritten);

  /// Builds the disk-backed twin of `src`: page `i` is recorded as
  /// spilled at sidecar page id `sidecar_ids[i]` — one of `extent`'s
  /// ids — and served through the extent's pool on read; where the id
  /// is `kInvalidPageId` the twin keeps `src`'s resident bytes (if
  /// any). The twin holds `extent`, so its pages stay valid as long as
  /// the twin lives. Callers swap the twin in for `src` and let readers
  /// still holding `src` drain naturally (copy-on-write, like the
  /// overlays themselves).
  static std::shared_ptr<const PositionOverlay> SpilledTwin(
      const PositionOverlay& src, std::vector<PageId> sidecar_ids,
      std::shared_ptr<const SpillExtent> extent);

 private:
  std::vector<std::shared_ptr<const PageBytes>> pages_;
  /// Sidecar page id per overlay page (`kInvalidPageId` = not spilled).
  /// Empty for fully resident overlays.
  std::vector<PageId> spilled_;
  /// Owner of the spilled pages' sidecar ids (and the pool reading
  /// them); set iff any page is spilled.
  std::shared_ptr<const SpillExtent> extent_;
  size_t positions_per_page_ = 0;
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_DELTA_OVERLAY_H_
