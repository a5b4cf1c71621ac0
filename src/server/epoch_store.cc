// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/epoch_store.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>
#include <vector>

namespace octopus::server {
namespace {

/// The ring entry for epoch `id`, or null. Epoch ids are ascending
/// (eviction leaves holes but never reorders), so the ring is
/// binary-searchable — keeps lookups cheap even at the CLI's largest
/// accepted history caps.
template <typename Ring>
auto FindEntry(Ring& ring, engine::EpochId id) -> decltype(&ring.front()) {
  auto it = std::lower_bound(ring.begin(), ring.end(), id,
                             [](const auto& entry, engine::EpochId target) {
                               return entry.info.epoch < target;
                             });
  return it != ring.end() && it->info.epoch == id ? &*it : nullptr;
}

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status EpochRetentionOptions::Validate() const {
  if (retention_epochs < 1) {
    return Status::InvalidArgument(
        "retention-epochs must be at least 1 epoch (the current epoch "
        "cannot be spilled)");
  }
  if (retention_bytes < 1) {
    return Status::InvalidArgument(
        "retention-bytes must be at least 1 byte");
  }
  if (history_epochs < retention_epochs) {
    return Status::InvalidArgument(
        "history-epochs (" + std::to_string(history_epochs) +
        ") must cover the retention window (" +
        std::to_string(retention_epochs) + " epochs)");
  }
  return Status::OK();
}

EpochStore::EpochStore(uint32_t page_bytes, EpochRetentionOptions options)
    : page_bytes_(page_bytes), options_(std::move(options)) {}

EpochStore::~EpochStore() = default;

Status EpochStore::Init() {
  OCTOPUS_RETURN_NOT_OK(options_.Validate());
  if (!options_.spill_path.empty()) {
    auto spill =
        storage::EpochSpillFile::Create(options_.spill_path, page_bytes_);
    if (!spill.ok()) return spill.status();
    spill_ = spill.MoveValue();
  }
  return Status::OK();
}

void EpochStore::Publish(PinnedEpochState state) {
  common::MutexLock lock(mu_);
  assert((ring_.empty() || state.info.epoch > ring_.back().info.epoch) &&
         "epoch ids must be strictly increasing");
  assert(state.overlay != nullptr && "every epoch has an overlay");
  Entry entry;
  entry.info = state.info;
  entry.overlay = std::move(state.overlay);
  entry.resident = entry.overlay->resident_bytes();
  ring_.push_back(std::move(entry));
  last_publish_nanos_.store(SteadyNanos(), std::memory_order_release);
  if (journal_ != nullptr) {
    journal_->Emit(obs::EventKind::kEpochPublished, state.info.epoch, 0,
                   state.info.step, ResidentBytesLocked());
  }
  EnforceRetention();
}

std::optional<PinnedEpochState> EpochStore::PinNewest() const {
  common::MutexLock lock(mu_);
  if (ring_.empty()) return std::nullopt;
  const Entry& newest = ring_.back();
  return PinnedEpochState{newest.info, newest.overlay};
}

engine::EpochInfo EpochStore::CurrentInfo() const {
  common::MutexLock lock(mu_);
  return ring_.empty() ? engine::EpochInfo{} : ring_.back().info;
}

Result<PinnedEpochState> EpochStore::PinEpoch(engine::EpochId id) const {
  common::MutexLock lock(mu_);
  if (const Entry* entry = FindLocked(id)) {
    return PinnedEpochState{entry->info, entry->overlay};
  }
  return Status::NotFound(
      "epoch " + std::to_string(id) +
      " is gone: evicted from the bounded history (or never published)");
}

Result<engine::EpochInfo> EpochStore::AddPin(engine::EpochId id) {
  common::MutexLock lock(mu_);
  if (Entry* entry = FindLocked(id)) {
    ++entry->pins;
    return entry->info;
  }
  return Status::NotFound("epoch " + std::to_string(id) +
                          " is gone: nothing to pin");
}

Result<engine::EpochInfo> EpochStore::AddPinNewest() {
  common::MutexLock lock(mu_);
  if (ring_.empty()) {
    return Status::NotFound("no epoch has been published yet");
  }
  ++ring_.back().pins;
  return ring_.back().info;
}

Status EpochStore::ReleasePin(engine::EpochId id) {
  common::MutexLock lock(mu_);
  Entry* entry = FindLocked(id);
  if (entry == nullptr) {
    return Status::NotFound("epoch " + std::to_string(id) +
                            " is gone: nothing to unpin");
  }
  if (entry->pins == 0) {
    return Status::NotFound("epoch " + std::to_string(id) +
                            " is not pinned");
  }
  --entry->pins;
  // Re-enforce immediately: an unpinned epoch past the history cap
  // becomes EPOCH_GONE now, not at the next step.
  EnforceRetention();
  return Status::OK();
}

size_t EpochStore::ResidentBytesLocked() const {
  size_t bytes = 0;
  for (const Entry& entry : ring_) bytes += entry.resident;
  return bytes;
}

EpochStore::Entry* EpochStore::FindLocked(engine::EpochId id) {
  return FindEntry(ring_, id);
}

const EpochStore::Entry* EpochStore::FindLocked(engine::EpochId id) const {
  return FindEntry(ring_, id);
}

void EpochStore::SpillOne(engine::EpochId id) {
  // Snapshot the state to write under the lock; the entry stays
  // resident (and queryable) while the I/O runs.
  std::shared_ptr<const storage::PositionOverlay> overlay;
  {
    Entry* entry = FindLocked(id);
    if (entry == nullptr || entry->spilled || entry->spilling) return;
    entry->spilling = true;
    overlay = entry->overlay;
  }

  mu_.Unlock();
  // The sidecar write runs with the ring unlocked: a concurrent
  // current-epoch pin never waits out the disk. Every memory-resident
  // page is written (a resident overlay has no spilled ones); resident
  // pages store entry bytes only, and the sidecar zero-pads them back
  // to the writer's full page size.
  std::vector<storage::PageId> overlay_ids(overlay->num_page_slots(),
                                           storage::kInvalidPageId);
  std::vector<std::span<const std::byte>> pages;
  for (uint64_t page = 0; page < overlay_ids.size(); ++page) {
    if (const std::byte* bytes = overlay->Lookup(page)) {
      pages.emplace_back(bytes, overlay->resident_page_bytes(page));
    }
  }
  auto extent = spill_->Write(pages);
  std::shared_ptr<const storage::PositionOverlay> twin;
  if (extent.ok()) {
    const std::span<const storage::PageId> ids = extent.Value()->ids();
    for (uint64_t page = 0, next = 0; page < overlay_ids.size(); ++page) {
      if (overlay->Lookup(page) != nullptr) overlay_ids[page] = ids[next++];
    }
    twin = storage::PositionOverlay::SpilledTwin(
        *overlay, std::move(overlay_ids), extent.MoveValue());
  }
  mu_.Lock();

  // Evicted meanwhile: dropping the unpublished twin recycles its pages.
  Entry* entry = FindLocked(id);
  if (entry == nullptr) return;
  entry->spilling = false;
  if (twin == nullptr) {
    // Marked rather than retried: a sidecar that failed once (disk
    // full, I/O error) would livelock the retention loop. The picker
    // treats the entry as unspillable — evicted if unpinned, resident
    // pin-memory otherwise.
    entry->spill_failed = true;
    return;
  }
  // Swap in the disk-backed twin. Readers still holding the resident
  // overlay drain naturally — copy-on-write all the way down.
  entry->overlay = std::move(twin);
  entry->spilled = true;
  entry->resident = 0;
  if (journal_ != nullptr) {
    journal_->Emit(obs::EventKind::kEpochSpilled, id, 0, pages.size(),
                   pages.size() * uint64_t{page_bytes_});
  }
}

void EpochStore::EnforceRetention() {
  // Evict pass first: drop the oldest unpinned epochs past the history
  // cap. Pins are exempt *on top of* the cap (they never steal a
  // history slot from a younger epoch): the ring holds at most
  // history_epochs unpinned entries plus every pinned one, and snaps
  // back as pins release — an epoch whose last pin goes away past the
  // cap is evicted by that very release. Evicting before spilling hands
  // the evicted epoch's sidecar pages back in time for this call's
  // spill to reuse them, so the sidecar holds (history − retention)
  // epochs of pages, not one more, and with history == retention no
  // epoch is written and dropped in the same call.
  size_t pinned = 0;
  for (const Entry& entry : ring_) pinned += entry.pins > 0 ? 1 : 0;
  const size_t cap = options_.history_epochs + pinned;
  size_t excess = ring_.size() > cap ? ring_.size() - cap : 0;
  for (auto it = ring_.begin(); excess > 0 && it + 1 != ring_.end();) {
    if (it->pins == 0) {
      if (journal_ != nullptr) {
        journal_->Emit(obs::EventKind::kEpochEvicted, it->info.epoch, 0,
                       it->info.step, it->spilled ? 1 : 0);
      }
      it = ring_.erase(it);
      ++evicted_;
      --excess;
    } else {
      ++it;
    }
  }
  // Spill pass, oldest first. An epoch leaves the resident window when
  // more than `retention_epochs` epochs are resident behind it, or the
  // resident bytes exceed the cap; the newest epoch is always exempt
  // (the hot path must never pay sidecar I/O). Without a sidecar the
  // epoch is evicted instead — unless pinned, in which case it stays
  // resident (the documented memory cost of pinning without spill).
  // The scan restarts after every spill, because the ring may change
  // while the spill's disk I/O runs with the lock released.
  for (;;) {
    engine::EpochId to_spill = 0;
    bool found = false;
    size_t resident_count = 0;
    for (const Entry& entry : ring_) {
      resident_count += entry.spilled || entry.spilling ? 0 : 1;
    }
    // One O(ring) bytes sum per scan, maintained incrementally below —
    // never recomputed per entry (a byte-cap spill storm would turn
    // that quadratic).
    size_t resident_bytes = ResidentBytesLocked();
    for (size_t i = 0; i + 1 < ring_.size(); ++i) {
      Entry& entry = ring_[i];
      if (entry.spilled || entry.spilling) continue;
      const bool over_count = resident_count > options_.retention_epochs;
      const bool over_bytes = resident_bytes > options_.retention_bytes;
      if (!over_count && !over_bytes) break;
      if (spill_ == nullptr || entry.spill_failed) {
        if (entry.pins > 0) {
          // Pinned and unspillable: stays resident, exempt — and
          // leaves the window accounting, so it cannot force younger,
          // in-window epochs out (pin-memory, not a window slot).
          --resident_count;
          resident_bytes -= entry.resident;
          continue;
        }
        resident_bytes -= entry.resident;
        if (journal_ != nullptr) {
          journal_->Emit(obs::EventKind::kEpochEvicted, entry.info.epoch,
                         0, entry.info.step, entry.spilled ? 1 : 0);
        }
        ring_.erase(ring_.begin() + static_cast<ptrdiff_t>(i));
        ++evicted_;
        --resident_count;
        --i;
        continue;
      }
      to_spill = entry.info.epoch;
      found = true;
      break;
    }
    if (!found) break;
    SpillOne(to_spill);
  }
}

size_t EpochStore::resident_bytes() const {
  common::MutexLock lock(mu_);
  return ResidentBytesLocked();
}

size_t EpochStore::resident_epochs() const {
  common::MutexLock lock(mu_);
  size_t n = 0;
  for (const Entry& entry : ring_) n += entry.spilled ? 0 : 1;
  return n;
}

size_t EpochStore::spilled_epochs() const {
  common::MutexLock lock(mu_);
  size_t n = 0;
  for (const Entry& entry : ring_) n += entry.spilled ? 1 : 0;
  return n;
}

uint64_t EpochStore::epochs_evicted() const {
  common::MutexLock lock(mu_);
  return evicted_;
}

uint64_t EpochStore::spill_pages_written() const {
  return spill_ != nullptr ? spill_->pages_written() : 0;
}

uint64_t EpochStore::spill_bytes_written() const {
  return spill_ != nullptr ? spill_->bytes_written() : 0;
}

uint64_t EpochStore::sidecar_bytes() const {
  return spill_ != nullptr ? spill_->file_bytes() : 0;
}

uint64_t EpochStore::spill_pages_free() const {
  return spill_ != nullptr ? spill_->pages_free() : 0;
}

size_t EpochStore::spill_failed_epochs() const {
  common::MutexLock lock(mu_);
  size_t n = 0;
  for (const Entry& entry : ring_) n += entry.spill_failed ? 1 : 0;
  return n;
}

EpochStoreView EpochStore::View() const {
  EpochStoreView view;
  {
    common::MutexLock lock(mu_);
    view.entries.reserve(ring_.size());
    for (const Entry& entry : ring_) {
      EpochEntryView e;
      e.info = entry.info;
      e.resident = !entry.spilled;
      e.spilled = entry.spilled;
      e.spill_failed = entry.spill_failed;
      e.pins = entry.pins;
      e.resident_bytes = entry.resident;
      view.entries.push_back(e);
    }
    view.resident_bytes = ResidentBytesLocked();
    view.evicted_total = evicted_;
    view.spill_enabled = spill_ != nullptr;
  }
  view.spill_pages_written = spill_pages_written();
  view.spill_bytes_written = spill_bytes_written();
  view.sidecar_bytes = sidecar_bytes();
  view.spill_pages_free = spill_pages_free();
  return view;
}

}  // namespace octopus::server
