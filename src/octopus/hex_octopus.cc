// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/hex_octopus.h"

#include <cassert>

namespace octopus {

HexOctopus::HexOctopus(OctopusOptions options)
    : options_(options), contexts_(options.visited_mode) {
  assert(options_.surface_sample_fraction > 0.0 &&
         options_.surface_sample_fraction <= 1.0);
  assert(!options_.support_restructuring &&
         "hexahedral restructuring maintenance is not implemented");
}

void HexOctopus::Build(const HexaMesh& mesh) {
  HexSurfaceInfo info = ExtractHexSurface(mesh);
  surface_index_.BuildFromSurfaceVertices(std::move(info.surface_vertices));
  const MeshGraphView graph = mesh.Graph();
  route_.Build(options_, graph.positions,
               surface_index_.num_surface_vertices(), graph.adj.size());
  contexts_.set_num_vertices(mesh.num_vertices());
  contexts_.Ensure(1);
}

void HexOctopus::RangeQuery(const HexaMesh& mesh, const AABB& box,
                            std::vector<VertexId>* out) const {
  engine::QueryBatchResult batch;
  RangeQueryBatch(mesh, std::span<const AABB>(&box, 1), &batch);
  out->insert(out->end(), batch.per_query[0].begin(),
              batch.per_query[0].end());
}

void HexOctopus::RangeQueryBatch(const HexaMesh& mesh,
                                 std::span<const AABB> boxes,
                                 engine::QueryBatchResult* out,
                                 engine::ThreadPool* pool) const {
  ExecuteOctopusBatch(mesh.Graph(), surface_index_, options_, route_, boxes,
                      out, pool, &contexts_);
}

size_t HexOctopus::FootprintBytes() const {
  return surface_index_.FootprintBytes() + route_.FootprintBytes() +
         contexts_.ScratchBytes();
}

}  // namespace octopus
