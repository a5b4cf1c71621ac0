// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/query_executor.h"

#include <cassert>

namespace octopus {

void ExecuteOctopusBatch(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts) {
  ExecuteOctopusBatch(
      [&graph](engine::ExecutionContext*) {
        return storage::InMemoryMeshAccessor(graph);
      },
      surface_index, options, boxes, out, pool, contexts);
}

Octopus::Octopus(OctopusOptions options)
    : options_(options), contexts_(options.visited_mode) {
  assert(options_.surface_sample_fraction > 0.0 &&
         options_.surface_sample_fraction <= 1.0);
  surface_index_ = SurfaceIndex(SurfaceIndex::Options{
      .support_restructuring = options_.support_restructuring,
  });
}

void Octopus::Build(const TetraMesh& mesh) {
  surface_index_.Build(mesh);
  contexts_.set_num_vertices(mesh.num_vertices());
  contexts_.Ensure(1);
}

void Octopus::RangeQuery(const TetraMesh& mesh, const AABB& box,
                         std::vector<VertexId>* out) const {
  engine::QueryBatchResult batch;
  RangeQueryBatch(mesh, std::span<const AABB>(&box, 1), &batch);
  out->insert(out->end(), batch.per_query[0].begin(),
              batch.per_query[0].end());
}

void Octopus::RangeQueryBatch(const TetraMesh& mesh,
                              std::span<const AABB> boxes,
                              engine::QueryBatchResult* out,
                              engine::ThreadPool* pool) const {
  ExecuteOctopusBatch(mesh.Graph(), surface_index_, options_, boxes, out,
                      pool, &contexts_);
}

size_t Octopus::FootprintBytes() const {
  return surface_index_.FootprintBytes() + contexts_.ScratchBytes();
}

void Octopus::OnRestructure(const TetraMesh& mesh,
                            const RestructureDelta& delta) {
  surface_index_.ApplyDelta(delta);
  contexts_.set_num_vertices(mesh.num_vertices());
}

}  // namespace octopus
