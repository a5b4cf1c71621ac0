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
// bytes changed. In memory there is no base file (the mesh array is the
// live simulation state), so every overlay covers every page. Readers
// on both backends go through a per-batch page table (`ResidentEpoch`)
// that points at the overlay's pages; paged, the pages it leaves null
// are read from the snapshot through the buffer pool.
//
// An overlay's pages live in one of two places: in memory (the hot,
// recent epochs) or in an on-disk spill sidecar (epochs past the
// retention window — see storage/epoch_spill.h). Every batch runs
// against a resident epoch: a batch that pins a spilled overlay first
// reads its sidecar pages back in one pass (`ReadSpilled`: one `preadv`
// per run of consecutive sidecar ids, one page miss per page) into the
// `ResidentEpoch` buffer. A spilled overlay holds the `SpillExtent`
// owning its sidecar pages, so they are recycled only once the last
// reader of the epoch lets go.
#ifndef OCTOPUS_STORAGE_DELTA_OVERLAY_H_
#define OCTOPUS_STORAGE_DELTA_OVERLAY_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/vec3.h"
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
  /// (never rewritten, or spilled to disk).
  const std::byte* Lookup(uint64_t index) const {
    return index < pages_.size() && pages_[index] != nullptr
               ? pages_[index]->data()
               : nullptr;
  }

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

  /// Entry bytes of memory-resident page `index` (0 when not resident).
  size_t resident_page_bytes(uint64_t index) const {
    return index < pages_.size() && pages_[index] != nullptr
               ? pages_[index]->size()
               : 0;
  }

  /// Positions per page (the tail page holds fewer).
  size_t positions_per_page() const { return positions_per_page_; }

  /// Reads every spilled page back from the sidecar: the `i`-th spilled
  /// page in page order into `dst[i]` (its entry bytes; a span may stop
  /// short of the page), one `preadv` per run of consecutive sidecar
  /// ids, each page priced as one page miss into `stats`. IOError on a
  /// short read or an I/O error — never zero-filled positions.
  Status ReadSpilled(std::span<const std::span<std::byte>> dst,
                     PageIOStats* stats) const;

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
  /// spilled at sidecar page id `sidecar_ids[i]` — `extent`'s ids, in
  /// page order — and read back through the extent; where the id
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
  /// Owner of the spilled pages' sidecar ids (and the descriptor
  /// reading them); set iff any page is spilled.
  std::shared_ptr<const SpillExtent> extent_;
  size_t positions_per_page_ = 0;
};

/// \brief One epoch's position pages as memory for the length of a
/// batch: the page table every executor reads through. Entry `i` points
/// at position page `i`'s entry bytes — the overlay's resident page, or
/// the spilled page reloaded into this object's buffer — or is null
/// where the overlay leaves the page to the base snapshot. Reused
/// across batches: once warm, binding a resident epoch allocates
/// nothing and the buffer stays at the largest spilled epoch seen.
class ResidentEpoch {
 public:
  /// Points the table at `overlay`'s resident pages and reloads its
  /// spilled pages into the buffer (`PositionOverlay::ReadSpilled`:
  /// one page miss per page into `stats`). On error the table is empty.
  /// The table is valid while `overlay` lives and until the next `Load`.
  Status Load(const PositionOverlay& overlay, PageIOStats* stats);

  std::span<const std::byte* const> pages() const { return pages_; }

 private:
  std::vector<const std::byte*> pages_;
  std::vector<std::byte> buffer_;
  std::vector<std::span<std::byte>> reload_;  ///< per spilled page
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_DELTA_OVERLAY_H_
