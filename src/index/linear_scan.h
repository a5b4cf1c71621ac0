// Copyright 2026 The OCTOPUS Reproduction Authors
// The baseline of the paper: test every vertex against the query box.
// Zero maintenance, no index, O(V) per query; batches share each pass
// over the positions (index/tiled_scan.h).
#ifndef OCTOPUS_INDEX_LINEAR_SCAN_H_
#define OCTOPUS_INDEX_LINEAR_SCAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/spatial_index.h"
#include "index/tiled_scan.h"

namespace octopus {

/// \brief Full scan over the position array, through the tiled kernel.
/// Answers come in id order. Queries reuse one scratch, so calls must
/// not overlap.
class LinearScan : public SpatialIndex {
 public:
  std::string Name() const override { return "LinearScan"; }
  void Build(const TetraMesh& mesh) override { (void)mesh; }
  void BeforeQueries(const TetraMesh& mesh) override { (void)mesh; }

  /// A batch of one, appended to `out`.
  void RangeQuery(const TetraMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const override;

  /// Every box through `TiledScan`, sequentially (`pool` is ignored).
  void RangeQueryBatch(const TetraMesh& mesh, std::span<const AABB> boxes,
                       engine::QueryBatchResult* out,
                       engine::ThreadPool* pool = nullptr) const override;

  /// No index. The kernel's working copy of one block (and 24 B of
  /// bounds per 1024 vertices) is query scratch, counted as zero like
  /// the paper's scan (Fig. 6(b)).
  size_t FootprintBytes() const override { return 0; }

 private:
  mutable TiledScan scan_;
  mutable std::vector<uint32_t> slots_;
};

}  // namespace octopus

#endif  // OCTOPUS_INDEX_LINEAR_SCAN_H_
