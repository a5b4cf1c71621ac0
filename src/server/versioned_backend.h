// Copyright 2026 The OCTOPUS Reproduction Authors
// The server's query backend, epoch-versioned with bounded history: one
// OCTOPUS executor — in-memory mesh or paged OCT2 snapshot — plus,
// optionally, a bound deformer that `AdvanceStep` drives. Both backends
// share one simulation side (the deformer advancing a positions array in
// place) and one epoch representation: every step publishes a
// `PositionOverlay` of the pages that differ from the previous epoch
// into an `EpochStore`, where recent epochs stay resident, older ones
// spill to a `.oct2d` sidecar and remain queryable, and epochs past
// the history cap are evicted unless pinned. Every batch — one
// `ExecuteAt` at the epoch its requests name, 0 for current —
// runs against a resident epoch: a spilled one is read back from the
// sidecar once per batch, before it runs, into memory the backend owns.
// Both executors read positions through that batch's page table over
// the epoch's pages. The surface index and the Eq. 6 route built at load
// time are never touched — the paper's stale-index claim, serving a mesh
// that moves *and* remembers where it has been.
//
// Thread model: `ExecuteAt` (and its in-process wrapper `Execute`)
// belongs to the server's scheduler thread; `AdvanceStep` may run on a
// dedicated stepper thread, and the pin verbs on the I/O threads,
// concurrently with it. Queries pin an epoch in O(1) and never
// block on (or get torn by) an in-flight step; `AdvanceStep` itself is
// serialized.
#ifndef OCTOPUS_SERVER_VERSIONED_BACKEND_H_
#define OCTOPUS_SERVER_VERSIONED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/mesh_epoch.h"
#include "engine/query_engine.h"
#include "mesh/tetra_mesh.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "server/epoch_store.h"
#include "sim/deformer.h"
#include "sim/deformer_spec.h"
#include "storage/delta_overlay.h"

namespace octopus::server {

/// \brief Executes query batches for the server, over either backing
/// store, against an epoch-versioned position state with a bounded,
/// spillable history.
///
/// `ExecuteAt`/`Execute` are single-threaded (the server's scheduler
/// thread is the only caller; internal query parallelism comes from the
/// engine's thread pool). `AdvanceStep`, `CurrentEpoch`, `PinEpoch` and
/// `UnpinEpoch` are safe from any thread concurrently with them — the
/// I/O threads call the pin/step paths inline while batches execute.
class VersionedBackend {
 public:
  /// In-memory backend over an OCT1 mesh file (loads + builds the
  /// surface index).
  static Result<std::unique_ptr<VersionedBackend>> OpenMeshFile(
      const std::string& path, int threads);

  /// In-memory backend over an already-built mesh (tests, benches).
  static std::unique_ptr<VersionedBackend> FromMesh(TetraMesh mesh,
                                                    int threads);

  /// Out-of-core backend over an OCT2 snapshot with a byte-capped pool.
  static Result<std::unique_ptr<VersionedBackend>> OpenSnapshot(
      const std::string& path, size_t pool_bytes, int threads);

  /// Overrides the epoch retention/spill knobs. Call before
  /// `BindDeformer` (which creates the store); afterwards it is an
  /// error. The defaults keep 8 epochs resident with no spill sidecar.
  Status ConfigureRetention(const EpochRetentionOptions& options);

  /// Binds the spec'd deformer, making the backend dynamic: the epoch
  /// store is created, epoch 1 (step 0, the state the index was built
  /// from) is published and `AdvanceStep` becomes available. An
  /// unresolved amplitude (0) is derived from the mesh. Call before
  /// serving; at most once.
  Status BindDeformer(const DeformerSpec& spec);

  /// Points lifecycle events (step applied here; epoch lifecycle in the
  /// store) at `journal` (non-owning; null detaches). Call before the
  /// stepper starts. Attach before `BindDeformer` to also journal the
  /// initial epoch's publication; attaching later is forwarded to an
  /// already-created store.
  void AttachJournal(obs::EventJournal* journal) {
    journal_ = journal;
    if (store_ != nullptr) store_->AttachJournal(journal);
  }

  bool dynamic() const { return dynamic_.load(std::memory_order_acquire); }
  DeformerKind deformer_kind() const;

  /// SIMULATE phase: advances the bound deformer one step and publishes
  /// the new positions as a fresh overlay (copy-on-write: pages equal to
  /// the previous epoch's are shared), then lets the store enforce
  /// retention (spill + evict). Requires `dynamic()`. Serialized
  /// internally; safe concurrently with `Execute`.
  engine::EpochInfo AdvanceStep();

  engine::EpochInfo CurrentEpoch() const;

  /// Snapshot position pages superseded by the most recent step: 0 in
  /// memory, where there is no snapshot (every overlay there is a full
  /// copy of the live array, not a delta of a file).
  uint64_t last_step_pages_rewritten() const {
    return paged() ? last_step_pages_rewritten_.load(
                         std::memory_order_acquire)
                   : 0;
  }

  /// Executes one coalesced batch at `wire_epoch` — the server's one
  /// entry point. 0 selects the current epoch, any other value the
  /// published epoch with that id, pinned for the whole batch.
  /// `batch_stats` receives exactly this batch's stats (the counters
  /// are reset per batch, so the delta is deterministic and, for a
  /// single-request batch, identical to an in-process run of the same
  /// queries at the same step), with `stale_steps` set to the epoch's
  /// step; `out->epoch` is the epoch it ran on. A spilled epoch is read
  /// back from the sidecar first (one page miss per page in
  /// `batch_stats->page_io`). NotFound = the epoch was evicted or never
  /// existed; IOError = its sidecar pages could not be read back (the
  /// message names the epoch). The server answers EPOCH_GONE to both.
  Status ExecuteAt(engine::EpochId wire_epoch, std::span<const AABB> boxes,
                   engine::QueryBatchResult* out, PhaseStats* batch_stats);

  /// `ExecuteAt(0, ...)` for in-process callers (tests, benches): the
  /// current epoch is never spilled, so it cannot fail.
  void Execute(std::span<const AABB> boxes, engine::QueryBatchResult* out,
               PhaseStats* batch_stats);

  /// Pins an epoch against eviction (`wire_epoch` 0 = current) and
  /// returns its identity; NotFound when it is already gone. The server
  /// keeps per-session counts and releases pins when the session dies.
  Result<engine::EpochInfo> PinEpoch(engine::EpochId wire_epoch);
  /// Releases one pin; NotFound for an unknown/unpinned epoch.
  Status UnpinEpoch(engine::EpochId epoch);

  /// The retention layer; null until a deformer is bound (static
  /// backends have exactly one epoch and nothing to retain).
  const EpochStore* epoch_store() const { return store_.get(); }

  bool paged() const { return paged_ != nullptr; }
  /// The paged backend's buffer pool (resident bytes, pin counts, I/O
  /// totals for /metrics); null for the in-memory backend.
  storage::BufferManager* buffer_manager() const {
    return paged_ ? paged_->store().buffer_manager() : nullptr;
  }
  uint64_t num_vertices() const { return num_vertices_; }
  /// Snapshot page size; 0 for the in-memory backend.
  uint32_t page_bytes() const { return page_bytes_; }
  int threads() const { return engine_.threads(); }
  /// Sidecar pages read back for batches at spilled epochs (lifetime).
  uint64_t epoch_reload_pages() const {
    return reload_pages_.load(std::memory_order_relaxed);
  }

 private:
  explicit VersionedBackend(int threads)
      : engine_(engine::QueryEngineOptions{.threads = threads}) {}

  /// Runs `boxes` against one pinned epoch (current or historical; null
  /// = the static load-time state) on whichever executor this backend
  /// owns, reading a spilled epoch back first (the one reload path:
  /// priced, counted, journaled as `epoch_reloaded`). IOError when the
  /// reload fails; nothing is executed then.
  Status ExecutePinned(const PinnedEpochState* pin,
                       std::span<const AABB> boxes,
                       engine::QueryBatchResult* out,
                       PhaseStats* batch_stats);

  engine::QueryEngine engine_;
  // Exactly one executor is set.
  // In-memory: the stale surface index, the Eq. 6 route and per-shard
  // contexts, built once at load over `mesh_` and shared by every epoch.
  OctopusOptions octopus_options_;
  SurfaceIndex surface_index_;
  ScanRoute route_;
  mutable engine::ContextPool contexts_;
  // Paged: the stale snapshot executor.
  std::unique_ptr<PagedOctopus> paged_;
  std::string snapshot_path_;

  // Simulation side. `mesh_` is the array the deformer advances in
  // place: in memory the loaded mesh itself (also the executor's
  // connectivity; its tetrahedra are released once the surface index is
  // built), paged a positions-only mesh read from the snapshot
  // at bind. Queries never read its positions once a deformer is bound.
  std::unique_ptr<TetraMesh> mesh_;
  DeformerSpec spec_;  ///< resolved amplitude; set once by BindDeformer
  std::unique_ptr<Deformer> deformer_;
  /// The overlays' diff base: the snapshot's positions (paged), or
  /// empty in memory, where every overlay covers every page.
  std::vector<Vec3> base_positions_;
  common::Mutex step_mu_;  // serializes AdvanceStep

  // The read side's resident epoch: the batch's position page table
  // over the pinned overlay, a spilled epoch's pages reloaded into its
  // buffer. Both executors read through it. Only the scheduler thread
  // executes, so the lock is uncontended; it makes that ownership
  // checkable.
  common::Mutex epoch_mu_;
  storage::ResidentEpoch epoch_ GUARDED_BY(epoch_mu_);
  std::atomic<uint64_t> reload_pages_{0};

  /// Epoch history: publication, retention, spill, pins. The store's
  /// single mutex makes every publication one atomic swap as observed
  /// by concurrent pins — an epoch's info and its position state are
  /// always seen together.
  EpochRetentionOptions retention_options_;
  std::unique_ptr<EpochStore> store_;
  obs::EventJournal* journal_ = nullptr;  ///< lifecycle event sink

  std::atomic<bool> dynamic_{false};
  std::atomic<uint64_t> last_step_pages_rewritten_{0};
  uint64_t num_vertices_ = 0;
  uint32_t page_bytes_ = 0;
};

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_VERSIONED_BACKEND_H_
