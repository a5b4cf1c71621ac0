// Copyright 2026 The OCTOPUS Reproduction Authors
// The epoch retention layer: a bounded ring of recently published mesh
// epochs, each one a `PositionOverlay` (storage/delta_overlay.h) — the
// single epoch representation of both backends. The store turns "stale
// but live" into "stale, live, *and* repeatable": the newest epochs stay
// memory-resident (count- and byte-capped retention window), older
// epochs have their overlay pages spilled to an on-disk `.oct2d` sidecar
// and read back whole, once per batch that queries them, and
// epochs past the history cap are evicted entirely — unless a session
// pinned them, which exempts them from eviction (never from spilling:
// pins cost disk, not memory) until the pin is released or the session
// dies. Querying an evicted-and-unpinned epoch is a typed EPOCH_GONE
// error, not silence. An evicted epoch's sidecar pages are recycled by
// later spills once no batch still reads it — retention evicts before
// it spills, so a step's spill reuses the pages of the epoch that step
// evicted — and the sidecar holds at most (history − retention) epochs
// of pages, plus the pinned ones and any evicted epoch a batch is still
// reading.
//
// Thread model: `Publish` belongs to the stepper (one at a time);
// `PinNewest` / `PinEpoch` / `AddPin` / `ReleasePin` are safe from any
// thread concurrently with it. One mutex guards the ring, so the newest
// epoch is published atomically — a concurrent pin observes either the
// whole previous epoch or the whole next one, never a half-updated mix
// (the invariant the dynamic-serving tests stress under TSan).
#ifndef OCTOPUS_SERVER_EPOCH_STORE_H_
#define OCTOPUS_SERVER_EPOCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/mesh_epoch.h"
#include "obs/event_journal.h"
#include "storage/delta_overlay.h"
#include "storage/epoch_spill.h"

namespace octopus::server {

/// \brief Knobs of the retention window and spill sidecar.
struct EpochRetentionOptions {
  /// Epochs kept memory-resident, newest first. The serving hot path
  /// (current-epoch queries) never touches the sidecar. Must be >= 1.
  size_t retention_epochs = 8;
  /// Byte cap on resident overlay memory: when the resident
  /// epochs' bytes exceed it, the oldest are spilled early even inside
  /// the count window (the newest epoch is always exempt). Must be >= 1.
  size_t retention_bytes = 256u << 20;
  /// Total ring capacity, resident + spilled; older epochs are evicted
  /// (EPOCH_GONE) unless pinned. Must be >= retention_epochs.
  size_t history_epochs = 64;
  /// Spill sidecar path (`.oct2d`). Empty = spilling disabled: epochs
  /// leaving the retention window are evicted directly, and pinned
  /// epochs stay resident (pins then cost memory, not disk).
  std::string spill_path;
  /// Sizes nothing: spilled epochs are read back whole per batch, with
  /// no pool. Kept only because octobench's provenance record prints
  /// it; drop it once that record stops.
  size_t spill_pool_bytes = 1u << 20;

  /// Rejects windows that cannot hold a single epoch and inconsistent
  /// caps — the validation `octopus_cli serve` applies up front.
  Status Validate() const;
};

/// \brief What a query pins: one epoch's identity plus its position
/// overlay (never null once published). Plain value; the shared_ptr
/// keeps the overlay alive and immutable for the duration of the batch.
struct PinnedEpochState {
  engine::EpochInfo info;
  std::shared_ptr<const storage::PositionOverlay> overlay;
};

/// \brief One ring entry as the `/epochs` introspection endpoint sees
/// it — identity, placement (resident/spilled), pins and memory cost.
struct EpochEntryView {
  engine::EpochInfo info;
  bool resident = false;
  bool spilled = false;
  bool spill_failed = false;
  uint32_t pins = 0;
  uint64_t resident_bytes = 0;
};

/// \brief A consistent point-in-time view of the whole retention ring
/// plus the sidecar's totals. The ring part is one `mu_` critical
/// section (entries are mutually consistent); the sidecar numbers are
/// read separately and may be a beat ahead of the ring during an
/// in-flight spill.
struct EpochStoreView {
  std::vector<EpochEntryView> entries;  ///< ascending epoch id
  uint64_t resident_bytes = 0;
  uint64_t evicted_total = 0;
  bool spill_enabled = false;
  uint64_t spill_pages_written = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t sidecar_bytes = 0;     ///< the sidecar file's size
  uint64_t spill_pages_free = 0;  ///< sidecar pages awaiting reuse
};

class EpochStore {
 public:
  /// `page_bytes` is the page size of the published overlays, which the
  /// spill sidecar pages with too (the snapshot's page size on the
  /// paged backend; a default for in-memory).
  EpochStore(uint32_t page_bytes, EpochRetentionOptions options);
  ~EpochStore();

  EpochStore(const EpochStore&) = delete;
  EpochStore& operator=(const EpochStore&) = delete;

  /// Validates the options and creates the spill sidecar (when a path
  /// is configured). Call once before the first `Publish`.
  Status Init();

  /// Points epoch-lifecycle events (published/spilled/reloaded/evicted)
  /// at `journal` (non-owning; null detaches). Call before the stepper
  /// starts — the pointer itself is unsynchronized.
  void AttachJournal(obs::EventJournal* journal) { journal_ = journal; }

  /// Publishes `state` as the new newest epoch (its `info.epoch` must
  /// be strictly larger than the current newest), then enforces
  /// retention: spills resident epochs past the window (or byte cap)
  /// and evicts unpinned epochs past the history cap.
  void Publish(PinnedEpochState state);

  /// The newest epoch; nullopt before the first `Publish`.
  std::optional<PinnedEpochState> PinNewest() const;
  engine::EpochInfo CurrentInfo() const;

  /// Pins epoch `id` for one batch: its resident overlay, or once
  /// spilled its sidecar-backed twin (which the reader reloads, pricing
  /// the page I/O into its stats). NotFound = the epoch was evicted (or
  /// never existed): the EPOCH_GONE case.
  Result<PinnedEpochState> PinEpoch(engine::EpochId id) const;

  /// Session-pin accounting: a pinned epoch is exempt from eviction
  /// until every pin is released. Returns the pinned epoch's identity;
  /// NotFound when it is already gone.
  Result<engine::EpochInfo> AddPin(engine::EpochId id);
  /// Pins whatever is current — resolved and pinned in ONE critical
  /// section, so "pin current" can never lose a race with a concurrent
  /// publish evicting the epoch it just read. NotFound only before the
  /// first publish.
  Result<engine::EpochInfo> AddPinNewest();
  /// Releases one pin and re-enforces retention (an unpinned epoch past
  /// the window is evicted immediately, not at the next step). NotFound
  /// when the epoch is unknown.
  Status ReleasePin(engine::EpochId id);

  // --- Observability (tests, bench, STATS) ---
  /// Resident overlay bytes attributable to stored epochs
  /// (per-epoch sum; structurally shared pages count once per epoch
  /// sharing them, an upper bound). The O(window) quantity.
  size_t resident_bytes() const;
  size_t resident_epochs() const;
  size_t spilled_epochs() const;
  uint64_t epochs_evicted() const;
  /// Pages/bytes written to the sidecar (monotonic; a recycled page
  /// counts each time it is rewritten).
  uint64_t spill_pages_written() const;
  uint64_t spill_bytes_written() const;
  /// The sidecar's footprint: its file size, and the pages below its
  /// high-water mark that no spilled epoch owns (the next spills'
  /// pages). 0 without a sidecar.
  uint64_t sidecar_bytes() const;
  uint64_t spill_pages_free() const;

  /// Entries whose spill failed (disk full / I/O error): they survive
  /// only as pinned memory, so a nonzero count means the sidecar is
  /// unhealthy — the `/readyz` signal.
  size_t spill_failed_epochs() const;
  /// Monotonic timestamp of the most recent `Publish` (0 before the
  /// first): `now - last` is the epoch-publication lag `/readyz`
  /// reports on a server whose stepper should be running.
  int64_t last_publish_steady_nanos() const {
    return last_publish_nanos_.load(std::memory_order_acquire);
  }

  /// The `/epochs` snapshot: every ring entry plus sidecar totals.
  EpochStoreView View() const;

  const EpochRetentionOptions& options() const { return options_; }
  uint32_t page_bytes() const { return page_bytes_; }

 private:
  struct Entry {
    engine::EpochInfo info;
    std::shared_ptr<const storage::PositionOverlay> overlay;
    uint32_t pins = 0;
    bool spilled = false;
    /// A spill's disk I/O is in flight for this entry (the ring mutex
    /// is released around it); the entry stays resident and queryable
    /// until the twin is installed.
    bool spilling = false;
    /// The sidecar refused this entry once; treat it as unspillable
    /// (evict if unpinned) instead of retrying forever.
    bool spill_failed = false;
    size_t resident = 0;  ///< bytes this entry holds in memory
  };

  /// Spills or evicts until the window/byte/history caps hold. Runs
  /// under the caller's `mu_` and RELEASES it around each spill's disk
  /// I/O, so concurrent pins never wait out a write — publication
  /// stays the O(1) pointer work the serving path was promised.
  void EnforceRetention() REQUIRES(mu_);
  /// Writes one entry's overlay to the sidecar: snapshots it under the
  /// lock, writes it unlocked, then relocks and installs the
  /// disk-backed twin. If the entry was evicted meanwhile, or the write
  /// failed, the spill's sidecar pages go straight back to the free
  /// list. `mu_` is held on entry and on return, but NOT across the
  /// write (the body drops and re-takes it).
  void SpillOne(engine::EpochId id) REQUIRES(mu_);
  Entry* FindLocked(engine::EpochId id) REQUIRES(mu_);
  const Entry* FindLocked(engine::EpochId id) const REQUIRES(mu_);
  size_t ResidentBytesLocked() const REQUIRES(mu_);

  const uint32_t page_bytes_;
  const EpochRetentionOptions options_;
  /// Created once in `Init` before any concurrency; thread-safe, so
  /// concurrent retention passes (Publish on the stepper vs ReleasePin
  /// on the event loop) may spill different entries at once.
  std::unique_ptr<storage::EpochSpillFile> spill_;

  mutable common::Mutex mu_;
  /// Ascending epoch ids; back() is newest.
  std::deque<Entry> ring_ GUARDED_BY(mu_);
  uint64_t evicted_ GUARDED_BY(mu_) = 0;

  /// Lifecycle event sink; null = silent, set before the stepper starts
  /// (`AttachJournal`). The journal is internally synchronized and its
  /// lock is a leaf, so emitting under `mu_` is deadlock-free.
  obs::EventJournal* journal_ = nullptr;
  std::atomic<int64_t> last_publish_nanos_{0};
};

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_EPOCH_STORE_H_
