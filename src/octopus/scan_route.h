// Copyright 2026 The OCTOPUS Reproduction Authors
// The served Eq. 6 planner (paper Sec. IV-G, VI-B/VIII-B): a box whose
// estimated selectivity is at or above the break-even goes to the linear
// scan, every other box to OCTOPUS. The estimate comes from an
// equi-width histogram of the step-0 positions (the technique of
// Acharya et al. [2] the paper cites); the break-even is Eq. 6 with the
// committed counter-unit constants, so a box routes the same way on any
// host under any load, and every executor built from the same step-0
// mesh routes it identically.
//
// The scan term stays the paper's CS * V although the scan that answers
// (index/tiled_scan.h) skips id blocks whose bounding box misses the
// box: CS * V bounds that scan from above, so the route only ever sends
// a box to the scan where the full scan would already win.
#ifndef OCTOPUS_OCTOPUS_SCAN_ROUTE_H_
#define OCTOPUS_OCTOPUS_SCAN_ROUTE_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string>

#include "common/aabb.h"
#include "common/histogram3d.h"
#include "common/status.h"
#include "common/vec3.h"
#include "storage/snapshot.h"

namespace octopus {

struct OctopusOptions;  // octopus/query_executor.h

/// \brief Per-box Eq. 6 routing: read-only after `Build`.
class ScanRoute {
 public:
  /// Histogram buckets per axis.
  static constexpr int kHistogramResolution = 24;

  /// Routes nothing until built (the paper's pure OCTOPUS).
  ScanRoute() = default;

  /// Under `options.route_to_scan`, sets the histogram from the step-0
  /// `positions` and the break-even from the mesh's S
  /// (`surface_vertices` / V) and M (`adjacency_entries` / V); otherwise
  /// routes nothing. Deformation never rebuilds it: like the surface
  /// index it stays at step 0.
  void Build(const OctopusOptions& options, std::span<const Vec3> positions,
             size_t surface_vertices, size_t adjacency_entries);

  /// `Build` from the positions section of the snapshot at `path`, read
  /// twice page by page (bounds, then buckets) outside the buffer pool:
  /// it holds one page of positions and moves no pool counter.
  Status BuildFromSnapshot(const OctopusOptions& options,
                           const std::string& path,
                           const storage::SnapshotHeader& header);

  /// True when `box` goes to the scan: every coordinate finite and the
  /// estimated selectivity at or above the break-even.
  bool ToScan(const AABB& box) const;

  /// True when some box can go to the scan.
  bool active() const { return break_even_ <= 1.0; }

  /// The Eq. 6 threshold in force; +inf until built.
  double break_even_selectivity() const { return break_even_; }

  size_t FootprintBytes() const { return histogram_.FootprintBytes(); }

 private:
  /// Eq. 6 for a mesh of `vertices` vertices; stays +inf (nothing
  /// routes) for an empty mesh or one without adjacency.
  void SetBreakEven(size_t vertices, size_t surface_vertices,
                    size_t adjacency_entries);

  Histogram3D histogram_{kHistogramResolution};
  double break_even_ = std::numeric_limits<double>::infinity();
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_SCAN_ROUTE_H_
