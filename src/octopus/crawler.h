// Copyright 2026 The OCTOPUS Reproduction Authors
// The crawling phase (paper Sec. IV-B): breadth-first traversal of the
// mesh edges from the start vertices, never expanding past a vertex that
// lies outside the query region. Visits O(result-neighborhood) vertices —
// the reason OCTOPUS scales sublinearly with dataset size.
//
// The BFS core is a template over any `storage::MeshAccessor`, so the
// same code crawls the resident mesh and a paged out-of-core snapshot
// (every access routed through the buffer pool). Its per-edge work — the
// visited test (octopus/visited_marks.h) and the accessor's position and
// prefetch calls — is all defined in headers, so it inlines without
// link-time optimization: with the default epoch-array marks, the
// in-memory crawl makes no function call per edge.
#ifndef OCTOPUS_OCTOPUS_CRAWLER_H_
#define OCTOPUS_OCTOPUS_CRAWLER_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "mesh/graph_view.h"
#include "mesh/tetra_mesh.h"
#include "mesh/types.h"
#include "octopus/visited_marks.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// \brief Per-crawl counters (feed the analytical model and Fig. 10).
struct CrawlStats {
  size_t vertices_inside = 0;    ///< result size
  size_t vertices_touched = 0;   ///< inside + frontier vertices tested
  size_t edges_traversed = 0;    ///< adjacency entries inspected
};

/// \brief Reusable BFS engine: the visited marks plus the FIFO.
///
/// The marks are the execution context's one visited-mark set; the
/// directed walk borrows them through `marks()` (a query walks, then
/// crawls, never both at once).
class Crawler {
 public:
  Crawler() = default;
  explicit Crawler(VisitedMode mode) : marks_(mode) {}

  /// Grows the visited marks to cover `num_vertices` (no-op in
  /// kHashSet mode).
  void EnsureSize(size_t num_vertices) { marks_.EnsureSize(num_vertices); }

  VisitedMarks& marks() { return marks_; }

  /// BFS from `starts`; appends every vertex inside `box` reachable from
  /// a start through vertices inside `box`. Starts outside the box are
  /// ignored. Duplicate starts are fine. Primitive- and residency-
  /// agnostic: any `MeshAccessor` can be crawled (paper Sec. IV-B).
  template <storage::MeshAccessor Accessor>
  CrawlStats Crawl(Accessor& mesh, const AABB& box,
                   std::span<const VertexId> starts,
                   std::vector<VertexId>* out) {
    CrawlStats stats;
    assert(marks_.Covers(mesh.num_vertices()) &&
           "EnsureSize not called for this mesh");
    marks_.Begin();

    queue_.clear();
    for (VertexId s : starts) {
      if (!marks_.Mark(s)) continue;
      ++stats.vertices_touched;
      if (!box.Contains(mesh.position(s))) continue;
      queue_.push_back(s);
      out->push_back(s);
      ++stats.vertices_inside;
    }

    // BFS; queue_ doubles as the FIFO with a moving head index.
    constexpr size_t kPrefetchAhead = 8;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId v = queue_[head];
      const std::span<const VertexId> ns = mesh.neighbors(v);
      for (size_t i = 0; i < ns.size(); ++i) {
        // Look ahead within the neighbor run: out of core, lease the next
        // position page before the frontier demands it (Hilbert layout
        // keeps runs page-local, so this is the paper's sequential-crawl
        // advantage made real). In memory the hint is a no-op.
        if (i + kPrefetchAhead < ns.size()) {
          mesh.PrefetchPosition(ns[i + kPrefetchAhead]);
        }
        const VertexId n = ns[i];
        ++stats.edges_traversed;
        if (!marks_.Mark(n)) continue;
        ++stats.vertices_touched;
        // Stop criteria: do not expand past vertices outside the query.
        if (!box.Contains(mesh.position(n))) continue;
        queue_.push_back(n);
        out->push_back(n);
        ++stats.vertices_inside;
      }
    }
    return stats;
  }

  /// Resident-mesh convenience overloads.
  CrawlStats Crawl(const MeshGraphView& graph, const AABB& box,
                   std::span<const VertexId> starts,
                   std::vector<VertexId>* out) {
    storage::InMemoryMeshAccessor accessor(graph);
    return Crawl(accessor, box, starts, out);
  }

  CrawlStats Crawl(const TetraMesh& mesh, const AABB& box,
                   std::span<const VertexId> starts,
                   std::vector<VertexId>* out) {
    return Crawl(mesh.Graph(), box, starts, out);
  }

  /// Bytes of visited marks + queue.
  size_t ScratchBytes() const {
    return marks_.ScratchBytes() + queue_.capacity() * sizeof(VertexId);
  }

 private:
  VisitedMarks marks_;
  std::vector<VertexId> queue_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_CRAWLER_H_
