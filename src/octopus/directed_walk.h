// Copyright 2026 The OCTOPUS Reproduction Authors
// The directed-walk phase (paper Sec. IV-D): when no surface vertex lies
// inside the query (query fully interior, or not intersecting the mesh),
// walk mesh edges from a start vertex toward the query box until a vertex
// inside is reached or the whole frontier is receding (-> empty result).
// Implemented as a bounded best-first search rather than the paper's pure
// greedy descent; see DESIGN.md 4b for the rationale (greedy stalls in
// local minima on jittered meshes).
//
// Like the crawler, the walk is a template over any
// `storage::MeshAccessor`: identical code (and identical expansion
// order, hence identical counters) in memory and out of core. It owns
// no per-call containers: the visited marks are the execution context's
// (the same set the crawl uses; octopus/visited_marks.h) and the
// frontier heap is a vector the context keeps across queries, so a warm
// context walks without allocating (epoch-array marks).
#ifndef OCTOPUS_OCTOPUS_DIRECTED_WALK_H_
#define OCTOPUS_OCTOPUS_DIRECTED_WALK_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <vector>

#include "common/aabb.h"
#include "mesh/graph_view.h"
#include "mesh/tetra_mesh.h"
#include "mesh/types.h"
#include "octopus/visited_marks.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// \brief Outcome of a directed walk.
struct WalkResult {
  /// A vertex inside the query box, or kInvalidVertex if the walk reached
  /// a local minimum first (on convex meshes that means the query does not
  /// intersect the mesh).
  VertexId found = kInvalidVertex;
  /// Vertices whose neighbor lists were expanded (paper Fig. 9(c) metric).
  size_t vertices_visited = 0;

  bool ok() const { return found != kInvalidVertex; }
};

namespace internal {

// Mean length of the edges incident to `v` — a cheap local scale estimate
// for the backtracking margin.
template <storage::MeshAccessor Accessor>
float LocalMeanEdgeLength(Accessor& mesh, VertexId v) {
  const Vec3 p = mesh.position(v);
  float total = 0.0f;
  size_t count = 0;
  for (VertexId n : mesh.neighbors(v)) {
    total += Distance(p, mesh.position(n));
    ++count;
  }
  return count == 0 ? 0.0f : total / static_cast<float>(count);
}

}  // namespace internal

/// One entry of the walk's frontier: a discovered vertex and its squared
/// distance to the query box.
struct WalkFrontier {
  float d2;
  VertexId vertex;
  bool operator>(const WalkFrontier& o) const { return d2 > o.d2; }
};

/// Walk from `start` toward `box` using current vertex positions.
/// Primitive- and residency-agnostic (works on any `MeshAccessor`).
/// `marks` (covering the mesh) and `heap` are caller-owned scratch: the
/// walk starts a new traversal on `marks` and leaves both in an
/// unspecified state.
template <storage::MeshAccessor Accessor>
WalkResult DirectedWalk(Accessor& mesh, const AABB& box, VertexId start,
                        VisitedMarks* marks,
                        std::vector<WalkFrontier>* heap) {
  WalkResult result;
  if (start == kInvalidVertex || mesh.num_vertices() == 0) return result;

  // Best-first walk: always expand the frontier vertex closest to the
  // query box (the paper's "always picking the edge that leads to a
  // vertex closer to the query region", made robust against the local
  // minima a purely greedy descent hits on jittered meshes).
  //
  // Termination: success when a vertex inside the box (distance 0) pops;
  // failure when even the CLOSEST frontier vertex is farther than the
  // start distance plus a few local edge lengths — on a convex mesh that
  // means the query does not intersect the mesh, and the explored shell
  // stays small because it is distance-bounded.
  const float start_d2 = box.SquaredDistanceTo(mesh.position(start));
  if (start_d2 == 0.0f) {
    result.found = start;
    return result;
  }
  const float margin = 3.0f * internal::LocalMeanEdgeLength(mesh, start);
  const float limit = std::sqrt(start_d2) + margin;
  const float limit_d2 = limit * limit;
  assert(marks->Covers(mesh.num_vertices()));

  // A binary min-heap on `heap` (the std::priority_queue operations,
  // spelled out so the vector's capacity survives across walks).
  const std::greater<> later{};
  heap->clear();
  heap->push_back({start_d2, start});
  marks->Begin();
  marks->Mark(start);

  while (!heap->empty()) {
    std::pop_heap(heap->begin(), heap->end(), later);
    const WalkFrontier current = heap->back();
    heap->pop_back();
    if (current.d2 == 0.0f) {
      result.found = current.vertex;
      return result;
    }
    if (current.d2 > limit_d2) {
      // The nearest reachable vertex is receding: no intersection.
      return result;
    }
    ++result.vertices_visited;
    for (VertexId n : mesh.neighbors(current.vertex)) {
      if (marks->Mark(n)) {
        heap->push_back({box.SquaredDistanceTo(mesh.position(n)), n});
        std::push_heap(heap->begin(), heap->end(), later);
      }
    }
  }
  return result;  // exhausted the component without entering the box
}

/// Resident-mesh convenience overloads for tests and tools: the same
/// walk with call-local scratch (hash-set marks, so the cost stays
/// proportional to the walk, not the mesh).
WalkResult DirectedWalk(const MeshGraphView& graph, const AABB& box,
                        VertexId start);

inline WalkResult DirectedWalk(const TetraMesh& mesh, const AABB& box,
                               VertexId start) {
  return DirectedWalk(mesh.Graph(), box, start);
}

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_DIRECTED_WALK_H_
