// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/octopus_con.h"

#include <span>

#include "common/timer.h"
#include "storage/mesh_accessor.h"

namespace octopus {

void OctopusCon::Build(const TetraMesh& mesh) {
  grid_.Build(mesh.positions());
  num_vertices_ = mesh.num_vertices();
  context_.EnsureSize(num_vertices_);
}

void OctopusCon::RangeQuery(const TetraMesh& mesh, const AABB& box,
                            std::vector<VertexId>* out) const {
  Timer timer;
  ++stats_.queries;
  context_.EnsureSize(num_vertices_);

  // --- Directed walk from a grid-suggested start ---
  // The grid maps the query center to a vertex that was nearby when the
  // grid was built. Even stale, it is a far better start than a random
  // vertex; the walk covers the remaining (drift) distance.
  ++stats_.walk_invocations;
  const VertexId hint = grid_.FindNearbyVertex(box.Center());
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  const WalkResult walk =
      DirectedWalk(accessor, box, hint, &context_.crawler.marks(),
                   &context_.walk_heap);
  stats_.walk_vertices += walk.vertices_visited;
  stats_.walk_nanos += timer.ElapsedNanos();
  if (!walk.ok()) {
    return;  // convex mesh + failed walk => query misses the mesh
  }

  // --- Crawl from the single interior start ---
  timer.Restart();
  const CrawlStats crawl = context_.crawler.Crawl(
      accessor, box, std::span<const VertexId>(&walk.found, 1), out);
  stats_.crawl_edges += crawl.edges_traversed;
  stats_.result_vertices += crawl.vertices_inside;
  stats_.crawl_nanos += timer.ElapsedNanos();
}

size_t OctopusCon::FootprintBytes() const {
  return grid_.FootprintBytes() + context_.ScratchBytes();
}

}  // namespace octopus
