// Copyright 2026 The OCTOPUS Reproduction Authors
// Model-driven approach selection (paper Sec. VI-B / VIII-B): "Equations
// 5 and 6 help us to decide when to use OCTOPUS given that we know the
// workload characteristics (M and S) and the runtime constants". The
// route itself is served by every OCTOPUS executor's batch core
// (octopus/scan_route.h, octopus/query_executor.h), so the server routes
// too. This header adds what only an exact in-process answer needs:
// `CrawlHalo`, and `AdaptiveExecutor`, which runs it on the boxes the
// route leaves to OCTOPUS.
#ifndef OCTOPUS_OCTOPUS_PLANNER_H_
#define OCTOPUS_OCTOPUS_PLANNER_H_

#include <vector>

#include "index/spatial_index.h"
#include "octopus/query_executor.h"
#include "octopus/visited_marks.h"

namespace octopus {

/// Completes a crawl's answer on a deformed mesh. The paper's crawl stops
/// at out-of-box vertices, so it misses an in-box vertex whose neighbours
/// all lie outside `box`. This looks one ring past the region: each
/// out-of-box neighbour of a result vertex has its own neighbours tested,
/// and an in-box one found there joins the result and is expanded in
/// turn. `(*out)[first..]` holds the crawl's answer for `box`; found
/// vertices are appended. Costs one more pass over the result's
/// adjacency plus the ring's.
void CrawlHalo(const TetraMesh& mesh, const AABB& box, size_t first,
               std::vector<VertexId>* out, VisitedMarks* marks);

/// \brief Exact per-query planner: an `Octopus` (whose batch core routes
/// each box by the Eq. 6 break-even of the committed
/// `kCounterUnitConstants`, so a box is routed the same way on any host
/// under any load) plus `CrawlHalo` on the boxes the route sends to
/// OCTOPUS, so both routes return the same answer on a deformed mesh.
class AdaptiveExecutor : public SpatialIndex {
 public:
  explicit AdaptiveExecutor(OctopusOptions options = {});

  std::string Name() const override { return "OCTOPUS-Adaptive"; }

  /// Builds the OCTOPUS surface index and route.
  void Build(const TetraMesh& mesh) override;

  /// No-op (neither route needs per-step maintenance).
  void BeforeQueries(const TetraMesh& mesh) override { (void)mesh; }

  /// Routes through `Octopus::RangeQuery` (a batch of one); `const` but not
  /// safe to call concurrently. Inherits the sequential batch default.
  void RangeQuery(const TetraMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const override;

  size_t FootprintBytes() const override;

  /// The Eq. 6 routing threshold currently in force.
  double break_even_selectivity() const {
    return octopus_.route().break_even_selectivity();
  }
  size_t queries_routed_to_octopus() const {
    return octopus_.stats().queries - octopus_.stats().scan_queries;
  }
  size_t queries_routed_to_scan() const {
    return octopus_.stats().scan_queries;
  }
  const Octopus& octopus() const { return octopus_; }

 private:
  Octopus octopus_;
  // CrawlHalo's visited set, reused across queries.
  mutable VisitedMarks halo_marks_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PLANNER_H_
