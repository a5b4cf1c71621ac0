// Copyright 2026 The OCTOPUS Reproduction Authors
// The fused surface probe (paper Sec. IV-C) of a batch shard. The paper
// charges the probe as a sequential scan of the surface (cost model,
// Sec. IV-G); with many queries per batch that scan is shared: the shard
// gathers the (sampled) surface positions once into a structure-of-arrays
// copy in probe order, then tests every box of a tile of queries against
// each L1-sized block of it in a branch-free loop the compiler
// auto-vectorizes at the baseline ISA.
//
// Per box the outcome is exactly the sequential scan's: the in-box
// vertices in probe order (the crawl starts) and, for a box that finds
// none, the first closest vertex in probe order (the directed walk's
// start, Sec. IV-D). `d2` is computed with `AABB::SquaredDistanceTo`'s
// float operations in the same order (ISO C++ mode: no FMA contraction),
// so `d2 == 0` — and hence every start set — is bit-identical.
#ifndef OCTOPUS_OCTOPUS_SURFACE_PROBE_H_
#define OCTOPUS_OCTOPUS_SURFACE_PROBE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "mesh/types.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// Boxes probed together per pass over the surface. Bounds the start-list
/// scratch to one tile's starts, however large the batch.
inline constexpr size_t kProbeTileBoxes = 64;
/// Surface vertices per block: the block's SoA slice (12 B/vertex) plus
/// its distance buffer (4 B/vertex) fit in L1 while the tile's boxes are
/// tested against it.
inline constexpr size_t kProbeBlockVertices = 1024;

/// Probe stride of the Sec. IV-H2 surface approximation: every
/// `stride`-th surface vertex is probed (1 = exact).
size_t ProbeStride(double surface_sample_fraction);

/// \brief Per-shard state of the fused surface probe: the gathered SoA
/// positions and the current tile's per-box outcome. Lives in the
/// shard's `engine::ExecutionContext` and is reused across batches.
class SurfaceProbe {
 public:
  /// Reads the probe-order positions of every `stride`-th entry of
  /// `surface` once, through `mesh.ProbePosition`, into the SoA copy.
  /// `surface` must outlive the following `ProbeTile` calls.
  template <storage::MeshAccessor Accessor>
  void Gather(Accessor& mesh, std::span<const VertexId> surface,
              size_t stride) {
    surface_ = surface;
    stride_ = stride;
    count_ = (surface.size() + stride - 1) / stride;
    x_.resize(count_);
    y_.resize(count_);
    z_.resize(count_);
    constexpr size_t kPrefetchAhead = 16;
    for (size_t i = 0; i < count_; ++i) {
      const size_t rank = i * stride;
      // Prefetch hides most of the strided gather's miss latency.
      if constexpr (requires { mesh.PrefetchProbePosition(rank, 0); }) {
        const size_t ahead = rank + kPrefetchAhead * stride;
        if (ahead < surface.size()) {
          mesh.PrefetchProbePosition(ahead, surface[ahead]);
        }
      }
      const Vec3& p = mesh.ProbePosition(rank, surface[rank]);
      x_[i] = p.x;
      y_[i] = p.y;
      z_[i] = p.z;
    }
  }

  /// Probes the gathered surface for up to `kProbeTileBoxes` boxes.
  void ProbeTile(std::span<const AABB> boxes);

  /// Surface vertices gathered (and probed per box): ceil(surface/stride).
  size_t size() const { return count_; }

  /// Box `b`'s crawl starts (in-box vertices, probe order) from the last
  /// `ProbeTile`. Mutable so the executor can append the walk's target.
  std::vector<VertexId>* starts(size_t b) { return &starts_[b]; }

  /// Box `b`'s closest probed vertex (first in probe order among equals),
  /// meaningful when its start list is empty; `kInvalidVertex` if the
  /// surface is empty.
  VertexId closest(size_t b) const { return closest_[b]; }

  size_t ScratchBytes() const;

 private:
  std::span<const VertexId> surface_;
  size_t stride_ = 1;
  size_t count_ = 0;
  std::vector<float> x_, y_, z_;
  std::vector<std::vector<VertexId>> starts_ =
      std::vector<std::vector<VertexId>>(kProbeTileBoxes);
  VertexId closest_[kProbeTileBoxes] = {};
  alignas(64) float d2_[kProbeBlockVertices] = {};
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_SURFACE_PROBE_H_
