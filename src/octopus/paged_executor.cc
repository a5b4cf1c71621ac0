// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/paged_executor.h"

namespace octopus {

Result<std::unique_ptr<PagedOctopus>> PagedOctopus::Open(
    const std::string& snapshot_path, const Options& options) {
  auto store = storage::PagedMeshStore::Open(snapshot_path, options.pool);
  if (!store.ok()) return store.status();
  std::unique_ptr<PagedOctopus> paged(
      new PagedOctopus(store.MoveValue(), options));
  OCTOPUS_RETURN_NOT_OK(paged->route_.BuildFromSnapshot(
      options.executor, snapshot_path, paged->store_->header()));
  return paged;
}

PagedOctopus::PagedOctopus(std::unique_ptr<storage::PagedMeshStore> store,
                           const Options& options)
    : options_(options),
      store_(std::move(store)),
      contexts_(options.executor.visited_mode) {
  surface_index_.BuildFromSurfaceVertices(store_->surface_vertices());
  contexts_.set_num_vertices(store_->num_vertices());
  contexts_.Ensure(1);
}

storage::PagedMeshAccessor& PagedOctopus::AccessorFor(
    engine::ExecutionContext* context,
    std::span<const std::byte* const> position_pages, size_t shards) const {
  if (context->paged_accessor == nullptr ||
      &context->paged_accessor->store() != store_.get()) {
    context->paged_accessor = std::make_unique<storage::PagedMeshAccessor>(
        store_.get(), &context->stats.page_io);
  } else {
    context->paged_accessor->set_stats(&context->stats.page_io);
  }
  // Opens the batch scope: binds the page table and sizes the lease
  // budget so `shards` concurrent accessors can never exhaust the pool.
  context->paged_accessor->BeginBatch(position_pages, shards);
  return *context->paged_accessor;
}

void PagedOctopus::RangeQuery(const AABB& box,
                              std::vector<VertexId>* out) const {
  engine::QueryBatchResult batch;
  RangeQueryBatch(std::span<const AABB>(&box, 1), &batch);
  out->insert(out->end(), batch.per_query[0].begin(),
              batch.per_query[0].end());
}

void PagedOctopus::RangeQueryBatch(
    std::span<const AABB> boxes, engine::QueryBatchResult* out,
    engine::ThreadPool* pool,
    std::span<const std::byte* const> position_pages) const {
  const size_t shards_hint = pool != nullptr ? pool->threads() : 1;
  ExecuteOctopusBatch(
      [this, position_pages, shards_hint](engine::ExecutionContext* context)
          -> storage::PagedMeshAccessor& {
        return AccessorFor(context, position_pages, shards_hint);
      },
      surface_index_, options_.executor, route_, boxes, out, pool,
      &contexts_);
}

size_t PagedOctopus::FootprintBytes() const {
  return surface_index_.FootprintBytes() + route_.FootprintBytes() +
         store_->buffer_manager()->AllocatedBytes() +
         store_->ResidentBytes() + contexts_.ScratchBytes();
}

}  // namespace octopus
