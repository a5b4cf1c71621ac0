// Copyright 2026 The OCTOPUS Reproduction Authors
// The crawling phase (paper Sec. IV-B): breadth-first traversal of the
// mesh edges from the start vertices, never expanding past a vertex that
// lies outside the query region. Visits O(result-neighborhood) vertices —
// the reason OCTOPUS scales sublinearly with dataset size.
//
// The BFS core is one loop, a template over any `storage::MeshAccessor`,
// so the same code crawls the resident mesh and a paged out-of-core
// snapshot (every access routed through the buffer pool). The caller's
// output vector is the FIFO: the result is exactly the BFS order, so
// `out[first..]` is expanded in turn from the size `out` had on entry,
// and nothing is pushed twice. The loop is also a template over the
// visited test (`VisitedMarks::Traverse`): the mode is read once per
// crawl and, with the default epoch-array marks, the stamp pointer and
// the 8-bit epoch stay in registers. Its per-edge work — that test and
// the accessor's position and prefetch calls — is all defined in
// headers, so it inlines without link-time optimization: the in-memory
// crawl makes no function call per edge.
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

/// \brief Reusable BFS engine: the visited marks.
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
  /// a start through vertices inside `box`, in BFS order. Starts outside
  /// the box are ignored. Duplicate starts are fine. Entries already in
  /// `out` are kept and not expanded. Primitive- and residency-agnostic:
  /// any `MeshAccessor` can be crawled (paper Sec. IV-B).
  template <storage::MeshAccessor Accessor>
  CrawlStats Crawl(Accessor& mesh, const AABB& box,
                   std::span<const VertexId> starts,
                   std::vector<VertexId>* out) {
    assert(marks_.Covers(mesh.num_vertices()) &&
           "EnsureSize not called for this mesh");
    return marks_.Traverse([&](auto mark) {
      return CrawlLoop(mesh, box, starts, out, mark);
    });
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

  /// Bytes of visited marks (the FIFO is the caller's result vector).
  size_t ScratchBytes() const { return marks_.ScratchBytes(); }

 private:
  template <typename Accessor, typename Mark>
  static CrawlStats CrawlLoop(Accessor& mesh, const AABB& query,
                              std::span<const VertexId> starts,
                              std::vector<VertexId>* out, Mark mark) {
    // A local copy: growing `out` calls the allocator, which the compiler
    // must assume could change `query`; `box` stays in registers.
    const AABB box = query;
    const size_t first = out->size();
    CrawlStats stats;
    for (VertexId s : starts) {
      if (!mark(s)) continue;
      ++stats.vertices_touched;
      if (box.Contains(mesh.position(s))) out->push_back(s);
    }

    // Look-ahead distances: adjacency runs of the vertex expanded four
    // heads from now, positions eight entries along the current run.
    constexpr size_t kNeighborsAhead = 4;
    constexpr size_t kPositionsAhead = 8;
    for (size_t head = first; head < out->size(); ++head) {
      if (head + kNeighborsAhead < out->size()) {
        mesh.PrefetchNeighbors((*out)[head + kNeighborsAhead]);
      }
      const std::span<const VertexId> ns = mesh.neighbors((*out)[head]);
      stats.edges_traversed += ns.size();
      for (size_t i = 0; i < ns.size(); ++i) {
        // Look ahead within the neighbor run: out of core, lease the next
        // position page before the frontier demands it (Hilbert layout
        // keeps runs page-local, so this is the paper's sequential-crawl
        // advantage made real). In memory the hint is a no-op.
        if (i + kPositionsAhead < ns.size()) {
          mesh.PrefetchPosition(ns[i + kPositionsAhead]);
        }
        const VertexId n = ns[i];
        if (!mark(n)) continue;
        ++stats.vertices_touched;
        // Stop criteria: do not expand past vertices outside the query.
        if (box.Contains(mesh.position(n))) out->push_back(n);
      }
    }
    stats.vertices_inside = out->size() - first;
    return stats;
  }

  VisitedMarks marks_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_CRAWLER_H_
