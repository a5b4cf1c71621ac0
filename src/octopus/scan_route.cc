// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/scan_route.h"

#include <cmath>

#include "octopus/cost_model.h"
#include "octopus/query_executor.h"

namespace octopus {

namespace {

bool IsFinite(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

}  // namespace

void ScanRoute::Build(const OctopusOptions& options,
                      std::span<const Vec3> positions,
                      size_t surface_vertices, size_t adjacency_entries) {
  break_even_ = std::numeric_limits<double>::infinity();
  if (!options.route_to_scan) return;
  histogram_.Build(positions);
  SetBreakEven(positions.size(), surface_vertices, adjacency_entries);
}

Status ScanRoute::BuildFromSnapshot(const OctopusOptions& options,
                                    const std::string& path,
                                    const storage::SnapshotHeader& header) {
  break_even_ = std::numeric_limits<double>::infinity();
  if (!options.route_to_scan) return Status::OK();
  AABB bounds;
  OCTOPUS_RETURN_NOT_OK(storage::VisitSnapshotPositions(
      path, header, [&bounds](std::span<const Vec3> page) {
        for (const Vec3& p : page) bounds.Extend(p);
      }));
  histogram_.Reset(bounds);
  OCTOPUS_RETURN_NOT_OK(storage::VisitSnapshotPositions(
      path, header,
      [this](std::span<const Vec3> page) { histogram_.Add(page); }));
  SetBreakEven(header.num_vertices, header.num_surface_vertices,
               header.num_adj_entries);
  return Status::OK();
}

void ScanRoute::SetBreakEven(size_t vertices, size_t surface_vertices,
                             size_t adjacency_entries) {
  if (vertices == 0 || adjacency_entries == 0) return;
  const double v = static_cast<double>(vertices);
  break_even_ = CostModel(static_cast<double>(surface_vertices) / v,
                          static_cast<double>(adjacency_entries) / v,
                          kCounterUnitConstants)
                    .BreakEvenSelectivity();
}

bool ScanRoute::ToScan(const AABB& box) const {
  return active() && IsFinite(box.min) && IsFinite(box.max) &&
         histogram_.EstimateSelectivity(box) >= break_even_;
}

}  // namespace octopus
