// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/planner.h"

namespace octopus {

void CrawlHalo(const TetraMesh& mesh, const AABB& box, size_t first,
               std::vector<VertexId>* out, VisitedMarks* marks) {
  marks->EnsureSize(mesh.num_vertices());
  marks->Begin();
  for (size_t i = first; i < out->size(); ++i) marks->Mark((*out)[i]);
  // `out` doubles as the FIFO: found vertices are expanded in turn. Only
  // out-of-box vertices adjacent to the region and in-box vertices are
  // marked, so each ring vertex is expanded once.
  for (size_t head = first; head < out->size(); ++head) {
    for (const VertexId n : mesh.neighbors((*out)[head])) {
      if (!marks->Mark(n)) continue;
      if (box.Contains(mesh.position(n))) {
        out->push_back(n);
        continue;
      }
      for (const VertexId m : mesh.neighbors(n)) {
        if (box.Contains(mesh.position(m)) && marks->Mark(m)) {
          out->push_back(m);
        }
      }
    }
  }
}

AdaptiveExecutor::AdaptiveExecutor(OctopusOptions options)
    : octopus_(options) {}

void AdaptiveExecutor::Build(const TetraMesh& mesh) {
  octopus_.Build(mesh);
  octopus_.ResetStats();
}

void AdaptiveExecutor::RangeQuery(const TetraMesh& mesh, const AABB& box,
                                  std::vector<VertexId>* out) const {
  const size_t first = out->size();
  octopus_.RangeQuery(mesh, box, out);
  // Eq. 6 prices the paper's crawl; CrawlHalo about doubles the crawl
  // term, so near the break-even OCTOPUS is picked where the scan is
  // slightly faster. Either route is exact, so that costs time only.
  if (!octopus_.route().ToScan(box)) {
    CrawlHalo(mesh, box, first, out, &halo_marks_);
  }
}

size_t AdaptiveExecutor::FootprintBytes() const {
  return octopus_.FootprintBytes() + halo_marks_.ScratchBytes();
}

}  // namespace octopus
