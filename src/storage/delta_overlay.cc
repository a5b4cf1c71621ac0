// Copyright 2026 The OCTOPUS Reproduction Authors
#include "storage/delta_overlay.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "storage/snapshot.h"

namespace octopus::storage {

size_t PositionOverlay::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& page : pages_) {
    if (page != nullptr) bytes += page->size();
  }
  return bytes;
}

Status PositionOverlay::ReadSpilled(std::span<const std::span<std::byte>> dst,
                                    PageIOStats* stats) const {
  if (dst.empty()) return Status::OK();
  assert(extent_ != nullptr && dst.size() == extent_->ids().size() &&
         "one destination per spilled page");
  OCTOPUS_RETURN_NOT_OK(extent_->Read(dst));
  stats->page_misses += dst.size();
  return Status::OK();
}

Status ResidentEpoch::Load(const PositionOverlay& overlay,
                           PageIOStats* stats) {
  const size_t slot_bytes = overlay.positions_per_page() * sizeof(Vec3);
  const size_t spilled = overlay.spilled_pages();
  if (buffer_.size() < spilled * slot_bytes) {
    buffer_.resize(spilled * slot_bytes);
  }
  pages_.assign(overlay.num_page_slots(), nullptr);
  reload_.clear();
  for (uint64_t page = 0; page < pages_.size(); ++page) {
    if (const std::byte* resident = overlay.Lookup(page)) {
      pages_[page] = resident;
    } else if (overlay.spilled_id(page) != kInvalidPageId) {
      std::byte* slot = buffer_.data() + reload_.size() * slot_bytes;
      reload_.emplace_back(slot, slot_bytes);
      pages_[page] = slot;
    }
  }
  const Status status = overlay.ReadSpilled(reload_, stats);
  if (!status.ok()) pages_.clear();
  return status;
}

std::shared_ptr<const PositionOverlay> PositionOverlay::BuildNext(
    size_t num_vertices, size_t page_bytes, const PositionOverlay* prev,
    std::span<const Vec3> base, std::span<const Vec3> positions,
    size_t* pages_rewritten) {
  assert(positions.size() == num_vertices &&
         (base.empty() || base.size() == num_vertices) &&
         "position arrays must match the vertex count");
  assert((prev == nullptr || prev->spilled_.empty()) &&
         "the previous epoch is the newest, which is never spilled");
  const size_t per_page = page_bytes / sizeof(Vec3);
  const uint64_t num_pages =
      PagesForEntries(num_vertices, sizeof(Vec3), page_bytes);

  auto overlay = std::make_shared<PositionOverlay>();
  overlay->pages_.resize(num_pages);
  overlay->positions_per_page_ = per_page;
  size_t rewritten = 0;
  for (uint64_t page = 0; page < num_pages; ++page) {
    const size_t begin = page * per_page;
    // The tail page holds fewer entries; compare (and store) only the
    // real entry bytes — the zero pad the OCT2 writer emits past them
    // is implicit, never garbage, so an unchanged tail page is never
    // spuriously rewritten.
    const size_t bytes =
        std::min<size_t>(per_page, num_vertices - begin) * sizeof(Vec3);
    const auto* fresh =
        reinterpret_cast<const std::byte*>(positions.data() + begin);
    // Diff against what a reader of the previous epoch sees on this
    // page: prev's bytes where it covers the page, else the base.
    if (prev != nullptr && page < prev->pages_.size() &&
        prev->pages_[page] != nullptr) {
      const std::shared_ptr<const PageBytes>& prev_page = prev->pages_[page];
      assert(prev_page->size() == bytes && "page geometry mismatch");
      if (std::memcmp(prev_page->data(), fresh, bytes) == 0) {
        overlay->pages_[page] = prev_page;  // shared, copy-on-write
        continue;
      }
    } else if (!base.empty() &&
               std::memcmp(base.data() + begin, fresh, bytes) == 0) {
      continue;  // the base is still valid
    }
    // Serialize exactly like the OCT2 writer: packed entries (the zero
    // tail materializes only when the page is spilled to disk).
    overlay->pages_[page] = std::make_shared<PageBytes>(fresh, fresh + bytes);
    ++rewritten;
  }
  if (pages_rewritten != nullptr) *pages_rewritten = rewritten;
  return overlay;
}

std::shared_ptr<const PositionOverlay> PositionOverlay::SpilledTwin(
    const PositionOverlay& src, std::vector<PageId> sidecar_ids,
    std::shared_ptr<const SpillExtent> extent) {
  assert(src.spilled_.empty() && sidecar_ids.size() == src.pages_.size() &&
         "a resident overlay, one sidecar id slot per page");
  auto overlay = std::make_shared<PositionOverlay>();
  overlay->pages_.resize(sidecar_ids.size());
  for (size_t page = 0; page < src.pages_.size(); ++page) {
    if (sidecar_ids[page] == kInvalidPageId) {
      overlay->pages_[page] = src.pages_[page];
    }
  }
  overlay->spilled_ = std::move(sidecar_ids);
  overlay->positions_per_page_ = src.positions_per_page_;
  assert(overlay->spilled_pages() ==
             (extent != nullptr ? extent->ids().size() : 0) &&
         "every page of the extent is one spilled page of the twin");
  if (overlay->spilled_pages() > 0) overlay->extent_ = std::move(extent);
  return overlay;
}

}  // namespace octopus::storage
