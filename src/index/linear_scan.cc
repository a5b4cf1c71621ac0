// Copyright 2026 The OCTOPUS Reproduction Authors
#include "index/linear_scan.h"

#include <numeric>

namespace octopus {

void LinearScan::RangeQuery(const TetraMesh& mesh, const AABB& box,
                            std::vector<VertexId>* out) const {
  static constexpr uint32_t kSlot = 0;
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  scan_.Run(accessor, std::span<const AABB>(&box, 1),
            std::span<const uint32_t>(&kSlot, 1), out);
}

void LinearScan::RangeQueryBatch(const TetraMesh& mesh,
                                 std::span<const AABB> boxes,
                                 engine::QueryBatchResult* out,
                                 engine::ThreadPool* pool) const {
  (void)pool;
  out->Reset(boxes.size());
  slots_.resize(boxes.size());
  std::iota(slots_.begin(), slots_.end(), 0u);
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  scan_.Run(accessor, boxes, slots_, out->per_query.data());
}

}  // namespace octopus
