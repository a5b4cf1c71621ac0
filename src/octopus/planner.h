// Copyright 2026 The OCTOPUS Reproduction Authors
// Model-driven approach selection (paper Sec. VI-B / VIII-B): "Equations
// 5 and 6 help us to decide when to use OCTOPUS given that we know the
// workload characteristics (M and S) and the runtime constants". The
// planner estimates each query's selectivity with the histogram technique
// of Acharya et al. [2] and routes it to OCTOPUS or the linear scan,
// whichever the cost model predicts to be faster.
#ifndef OCTOPUS_OCTOPUS_PLANNER_H_
#define OCTOPUS_OCTOPUS_PLANNER_H_

#include <memory>
#include <vector>

#include "common/histogram3d.h"
#include "index/linear_scan.h"
#include "index/spatial_index.h"
#include "octopus/cost_model.h"
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

/// \brief Per-query adaptive executor: OCTOPUS below the break-even
/// selectivity, linear scan above it. The break-even comes from the
/// committed `kCounterUnitConstants`, never from a timing taken at
/// `Build`, so a box is routed the same way on any host under any load.
/// The OCTOPUS route runs `CrawlHalo` after the crawl, so both routes
/// return the same answer on a deformed mesh.
class AdaptiveExecutor : public SpatialIndex {
 public:
  struct Options {
    OctopusOptions octopus;
    /// Histogram resolution for selectivity estimation.
    int histogram_resolution = 24;
  };

  AdaptiveExecutor();  // default options
  explicit AdaptiveExecutor(Options options);

  std::string Name() const override { return "OCTOPUS-Adaptive"; }

  /// Builds the OCTOPUS surface index and the selectivity histogram, and
  /// sets the Eq. 6 break-even from this mesh's S and M.
  void Build(const TetraMesh& mesh) override;

  /// No-op (neither sub-approach needs per-step maintenance).
  void BeforeQueries(const TetraMesh& mesh) override { (void)mesh; }

  /// Routes through `Octopus::RangeQuery` (a batch of one); `const` but not
  /// safe to call concurrently. Inherits the sequential batch default.
  void RangeQuery(const TetraMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const override;

  size_t FootprintBytes() const override;

  /// The Eq. 6 routing threshold currently in force.
  double break_even_selectivity() const { return break_even_; }
  size_t queries_routed_to_octopus() const { return to_octopus_; }
  size_t queries_routed_to_scan() const { return to_scan_; }
  const Octopus& octopus() const { return octopus_; }

 private:
  Options options_;
  Octopus octopus_;
  LinearScan scan_;
  Histogram3D histogram_;
  double break_even_ = 1.0;
  // CrawlHalo's visited set, reused across queries.
  mutable VisitedMarks halo_marks_;
  // Routing telemetry mutated by the const query path.
  mutable size_t to_octopus_ = 0;
  mutable size_t to_scan_ = 0;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PLANNER_H_
