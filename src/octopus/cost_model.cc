// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/timer.h"
#include "index/linear_scan.h"
#include "mesh/mesh_stats.h"
#include "octopus/query_executor.h"


namespace octopus {

CostConstants CalibrateCostConstants(const TetraMesh& mesh,
                                     int repetitions) {
  CostConstants k;
  repetitions = std::max(repetitions, 1);
  const AABB bounds = mesh.ComputeBounds();

  // --- CS: sequential scan cost per vertex ---
  {
    LinearScan scan;
    std::vector<VertexId> sink;
    // A low-selectivity box, like real monitoring queries: the scan's
    // branch pattern is "almost never inside".
    const AABB probe_box =
        AABB::FromCenterHalfExtent(bounds.Center(), bounds.Extent() * 0.05f);
    // One untimed scan first: it allocates the kernel's block scratch.
    scan.RangeQuery(mesh, probe_box, &sink);
    Timer timer;
    for (int r = 0; r < repetitions; ++r) {
      sink.clear();
      scan.RangeQuery(mesh, probe_box, &sink);
    }
    k.cs_seconds = timer.ElapsedSeconds() /
                   (static_cast<double>(repetitions) *
                    static_cast<double>(mesh.num_vertices()));
  }

  // --- CP and CR: self-calibrated from the executor's own phase
  // counters, so the constants reflect the production loops (branches,
  // result pushes, cache state) rather than an idealized kernel. ---
  {
    Octopus octo(OctopusOptions{.route_to_scan = false});
    octo.Build(mesh);
    // Query-sized boxes around random vertices, ~0.1% of the domain
    // volume each (a typical monitoring query).
    Rng rng(0xCA11B);
    const Vec3 half = bounds.Extent() * (0.5f * 0.1f);  // 0.1^3 = 0.1%
    std::vector<VertexId> sink;
    for (int r = 0; r < repetitions * 16; ++r) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
      const AABB box = AABB::FromCenterHalfExtent(mesh.position(v), half);
      sink.clear();
      octo.RangeQuery(mesh, box, &sink);
    }
    const PhaseStats& stats = octo.stats();
    k.cp_seconds = stats.probed_vertices == 0
                       ? k.cs_seconds
                       : static_cast<double>(stats.probe_nanos) * 1e-9 /
                             static_cast<double>(stats.probed_vertices);
    k.cr_seconds = stats.crawl_edges == 0
                       ? 0.0
                       : static_cast<double>(stats.crawl_nanos) * 1e-9 /
                             static_cast<double>(stats.crawl_edges);
  }
  return k;
}

CostModel CostModel::FromMesh(const TetraMesh& mesh,
                              CostConstants constants) {
  const MeshStats stats = ComputeMeshStats(mesh);
  return CostModel(stats.surface_to_volume, stats.mesh_degree, constants);
}

double EstimateQuerySelectivity(const Histogram3D& histogram,
                                const AABB& query) {
  return histogram.EstimateSelectivity(query);
}

}  // namespace octopus
