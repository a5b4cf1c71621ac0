// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/directed_walk.h"

namespace octopus {

WalkResult DirectedWalk(const MeshGraphView& graph, const AABB& box,
                        VertexId start) {
  storage::InMemoryMeshAccessor accessor(graph);
  VisitedMarks marks(VisitedMode::kHashSet);
  std::vector<WalkFrontier> heap;
  return DirectedWalk(accessor, box, start, &marks, &heap);
}

}  // namespace octopus
