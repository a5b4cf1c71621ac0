// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/versioned_backend.h"

#include <cassert>
#include <span>
#include <utility>

#include "mesh/mesh_io.h"
#include "storage/page.h"

namespace octopus::server {

Result<std::unique_ptr<VersionedBackend>> VersionedBackend::OpenMeshFile(
    const std::string& path, int threads) {
  auto mesh = LoadMesh(path);
  if (!mesh.ok()) return mesh.status();
  return FromMesh(mesh.MoveValue(), threads);
}

std::unique_ptr<VersionedBackend> VersionedBackend::FromMesh(TetraMesh mesh,
                                                             int threads) {
  std::unique_ptr<VersionedBackend> backend(new VersionedBackend(threads));
  backend->num_vertices_ = mesh.num_vertices();
  backend->mesh_ = std::make_unique<TetraMesh>(std::move(mesh));
  // The one-time build the paper prices: after this the index is never
  // maintained, however many steps the mesh advances.
  backend->surface_index_.Build(*backend->mesh_);
  // The Eq. 6 route, from the same step-0 mesh: the server routes every
  // box as an `Octopus` built from that mesh does.
  backend->route_.Build(backend->octopus_options_,
                        backend->mesh_->positions(),
                        backend->surface_index_.num_surface_vertices(),
                        backend->mesh_->Graph().adj.size());
  // Serving deforms and queries but never restructures: the tetrahedra
  // were only needed to extract the surface.
  backend->mesh_->ReleaseTetrahedra();
  backend->contexts_.set_num_vertices(backend->num_vertices_);
  return backend;
}

Result<std::unique_ptr<VersionedBackend>> VersionedBackend::OpenSnapshot(
    const std::string& path, size_t pool_bytes, int threads) {
  PagedOctopus::Options options;
  options.pool.pool_bytes = pool_bytes;
  auto paged = PagedOctopus::Open(path, options);
  if (!paged.ok()) return paged.status();
  std::unique_ptr<VersionedBackend> backend(new VersionedBackend(threads));
  backend->paged_ = paged.MoveValue();
  backend->snapshot_path_ = path;
  backend->num_vertices_ =
      backend->paged_->store().header().num_vertices;
  backend->page_bytes_ = backend->paged_->store().header().page_bytes;
  return backend;
}

Status VersionedBackend::ConfigureRetention(
    const EpochRetentionOptions& options) {
  if (store_ != nullptr) {
    return Status::InvalidArgument(
        "retention must be configured before the deformer is bound");
  }
  OCTOPUS_RETURN_NOT_OK(options.Validate());
  retention_options_ = options;
  return Status::OK();
}

Status VersionedBackend::BindDeformer(const DeformerSpec& spec) {
  if (dynamic()) {
    return Status::InvalidArgument("a deformer is already bound");
  }
  // Overlays (and the sidecar they spill to) page with the snapshot's
  // geometry on the paged backend; in-memory picks the default.
  const uint32_t epoch_page_bytes =
      page_bytes_ != 0 ? page_bytes_
                       : static_cast<uint32_t>(storage::kDefaultPageBytes);
  auto store =
      std::make_unique<EpochStore>(epoch_page_bytes, retention_options_);
  OCTOPUS_RETURN_NOT_OK(store->Init());
  store->AttachJournal(journal_);

  // The simulation array and the diff base. In memory the loaded mesh
  // is both the array and the connectivity, and there is no base. Paged,
  // the array is the snapshot's positions (the black-box solver's
  // working copy, read once, not through the query pool) and the base
  // is the snapshot itself.
  float mean_edge_length = 0.0f;
  if (paged_ != nullptr) {
    OCTOPUS_RETURN_NOT_OK(storage::ReadSnapshotPositions(
        snapshot_path_, paged_->store().header(), &base_positions_));
    mesh_ = std::make_unique<TetraMesh>(base_positions_, std::vector<Tet>{});
    storage::PageIOStats scratch_stats;
    storage::PagedMeshAccessor accessor(&paged_->store(), &scratch_stats);
    mean_edge_length = EstimateMeanEdgeLength(accessor);
  } else {
    mean_edge_length = EstimateMeanEdgeLength(*mesh_);
  }
  DeformerSpec resolved = spec;
  auto deformer = MakeDeformerResolving(&resolved, mean_edge_length);
  if (!deformer.ok()) return deformer.status();
  deformer_ = deformer.MoveValue();
  deformer_->Bind(*mesh_);
  spec_ = resolved;

  // Epoch ids start at 1: the wire reserves 0 for "whatever is
  // current", so id 1 keeps the initial (step-0) state addressable
  // even after later steps supersede it.
  store->Publish(PinnedEpochState{
      engine::EpochInfo{1, 0},
      storage::PositionOverlay::BuildNext(num_vertices_, epoch_page_bytes,
                                          nullptr, base_positions_,
                                          mesh_->positions(), nullptr)});
  store_ = std::move(store);
  dynamic_.store(true, std::memory_order_release);
  return Status::OK();
}

DeformerKind VersionedBackend::deformer_kind() const {
  return dynamic() ? spec_.kind : DeformerKind::kNone;
}

engine::EpochInfo VersionedBackend::AdvanceStep() {
  assert(dynamic() && "AdvanceStep requires a bound deformer");
  common::MutexLock step_lock(step_mu_);
  const std::optional<PinnedEpochState> prev = store_->PinNewest();
  const engine::EpochInfo info{prev->info.epoch + 1, prev->info.step + 1};
  // SIMULATE: O(V) in-place deformation of the live array, outside any
  // lock the query path takes (queries read published overlays only).
  deformer_->ApplyStep(static_cast<int>(info.step), mesh_.get());
  // Pages equal to the previous epoch's are shared with it; only
  // changed pages get fresh bytes. Connectivity is never touched.
  size_t rewritten = 0;
  std::shared_ptr<const storage::PositionOverlay> overlay =
      storage::PositionOverlay::BuildNext(
          num_vertices_, store_->page_bytes(), prev->overlay.get(),
          base_positions_, mesh_->positions(), &rewritten);
  last_step_pages_rewritten_.store(rewritten, std::memory_order_release);
  if (journal_ != nullptr) {
    journal_->Emit(obs::EventKind::kStepApplied, 0, 0, info.step,
                   last_step_pages_rewritten());
  }
  store_->Publish(PinnedEpochState{info, std::move(overlay)});
  return info;
}

engine::EpochInfo VersionedBackend::CurrentEpoch() const {
  return store_ != nullptr ? store_->CurrentInfo() : engine::EpochInfo{};
}

Status VersionedBackend::ExecutePinned(const PinnedEpochState* pin,
                                       std::span<const AABB> boxes,
                                       engine::QueryBatchResult* out,
                                       PhaseStats* batch_stats) {
  common::MutexLock lock(epoch_mu_);
  // Every batch runs against a resident epoch: a spilled epoch's pages
  // are read back from the sidecar first, once, on this thread, and
  // each page read is priced as one page miss of this batch. A static
  // backend never loads an epoch: its table stays empty, and both
  // executors read their own positions (the mesh array, the snapshot).
  storage::PageIOStats reload_io;
  if (pin != nullptr) {
    const Status reload = epoch_.Load(*pin->overlay, &reload_io);
    if (!reload.ok()) {
      return Status::IOError("epoch " + std::to_string(pin->info.epoch) +
                             " could not be read back: " + reload.message());
    }
    if (reload_io.page_misses > 0) {
      reload_pages_.fetch_add(reload_io.page_misses,
                              std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->Emit(obs::EventKind::kEpochReloaded, pin->info.epoch, 0,
                       reload_io.page_misses);
      }
    }
  }
  const std::span<const std::byte* const> pages = epoch_.pages();
  if (paged_ != nullptr) {
    paged_->ResetStats();
    paged_->RangeQueryBatch(boxes, out, engine_.pool(), pages);
    *batch_stats = paged_->stats();
  } else {
    // The stepper rewrites `mesh_`'s positions in place, so a dynamic
    // batch reads only the pinned epoch's table.
    const MeshGraphView graph = mesh_->Graph();
    const auto per_page = static_cast<uint32_t>(
        pin != nullptr ? pin->overlay->positions_per_page() : 0);
    contexts_.ResetStats();
    ExecuteOctopusBatch(
        [&](engine::ExecutionContext*) {
          return storage::InMemoryMeshAccessor(graph, pages, per_page);
        },
        surface_index_, octopus_options_, route_, boxes, out,
        engine_.pool(), &contexts_);
    *batch_stats = contexts_.stats();
  }
  batch_stats->page_io.Merge(reload_io);
  if (pin != nullptr) {
    out->epoch = pin->info;
    batch_stats->stale_steps = pin->info.step;
  }
  return Status::OK();
}

void VersionedBackend::Execute(std::span<const AABB> boxes,
                               engine::QueryBatchResult* out,
                               PhaseStats* batch_stats) {
  [[maybe_unused]] const Status status = ExecuteAt(0, boxes, out, batch_stats);
  assert(status.ok() && "the newest epoch is always resident");
}

Status VersionedBackend::ExecuteAt(engine::EpochId wire_epoch,
                                   std::span<const AABB> boxes,
                                   engine::QueryBatchResult* out,
                                   PhaseStats* batch_stats) {
  // Pin the epoch for the whole batch: the position state (and the
  // buffers behind it) stays alive and immutable even if a step
  // publishes a successor mid-batch.
  std::optional<PinnedEpochState> pin;
  if (store_ == nullptr) {
    if (wire_epoch != 0) {
      return Status::NotFound(
          "epoch " + std::to_string(wire_epoch) +
          " is gone: a static server has only its load-time state");
    }
  } else if (wire_epoch == 0) {
    // The wire's "epoch 0" means "whatever is current". The initial
    // state stays addressable as epoch 1 (published ids start at 1, so
    // the sentinel never shadows a real epoch). The newest epoch is
    // never spilled, so there is nothing to read back.
    pin = store_->PinNewest();
  } else {
    auto pinned = store_->PinEpoch(wire_epoch);
    if (!pinned.ok()) return pinned.status();
    pin = pinned.MoveValue();
  }
  return ExecutePinned(pin.has_value() ? &*pin : nullptr, boxes, out,
                       batch_stats);
}

Result<engine::EpochInfo> VersionedBackend::PinEpoch(
    engine::EpochId wire_epoch) {
  if (store_ == nullptr) {
    // Static backends have exactly one, never-evicted state: pinning
    // "current" is a harmless no-op so clients can run one code path.
    if (wire_epoch == 0) return engine::EpochInfo{};
    return Status::NotFound(
        "epoch " + std::to_string(wire_epoch) +
        " is gone: a static server has only its load-time state");
  }
  // "Pin current" resolves and pins atomically in the store: reading
  // the current id here and pinning it in a second call could lose a
  // race with a stepper publish evicting that very epoch.
  return wire_epoch == 0 ? store_->AddPinNewest()
                         : store_->AddPin(wire_epoch);
}

Status VersionedBackend::UnpinEpoch(engine::EpochId epoch) {
  if (store_ == nullptr) {
    if (epoch == 0) return Status::OK();  // the static no-op pin
    return Status::NotFound("epoch " + std::to_string(epoch) +
                            " was never pinned on this static server");
  }
  return store_->ReleasePin(epoch);
}

}  // namespace octopus::server
