// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/query_executor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/hilbert.h"

namespace octopus {

namespace {

// Bits per axis of the batch order's Hilbert curve: 1024 cells per axis
// separate boxes far finer than a crawl's extent.
constexpr int kBatchOrderBits = 10;

bool IsFinite(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

// A float's rank in IEEE-754 total order, as an unsigned key: NaN
// coordinates still order, where `<` would break the sort's contract.
uint32_t TotalOrderBits(float f) {
  const uint32_t bits = std::bit_cast<uint32_t>(f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

std::array<uint32_t, 6> CoordinateKey(const AABB& box) {
  return {TotalOrderBits(box.min.x), TotalOrderBits(box.min.y),
          TotalOrderBits(box.min.z), TotalOrderBits(box.max.x),
          TotalOrderBits(box.max.y), TotalOrderBits(box.max.z)};
}

}  // namespace

void OrderBatch(std::span<const AABB> boxes, engine::BatchOrder* order) {
  AABB domain;  // of the finite centres
  for (const AABB& box : boxes) {
    if (IsFinite(box.Center())) domain.Extend(box.Center());
  }
  const HilbertCurve3D curve(kBatchOrderBits);
  // Past every key of the curve's 3 * kBatchOrderBits bits.
  constexpr uint64_t kNonFinite = std::numeric_limits<uint64_t>::max();
  order->keys.resize(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    const Vec3 centre = boxes[i].Center();
    order->keys[i] =
        IsFinite(centre) ? curve.EncodePoint(centre, domain) : kNonFinite;
  }
  order->slots.resize(boxes.size());
  std::iota(order->slots.begin(), order->slots.end(), 0u);
  const std::vector<uint64_t>& keys = order->keys;
  std::sort(order->slots.begin(), order->slots.end(),
            [&](uint32_t a, uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              const auto ca = CoordinateKey(boxes[a]);
              const auto cb = CoordinateKey(boxes[b]);
              return ca != cb ? ca < cb : a < b;
            });
  order->boxes.resize(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    order->boxes[i] = boxes[order->slots[i]];
  }
}

void ExecuteOctopusBatch(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         const ScanRoute& route,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts) {
  ExecuteOctopusBatch(
      [&graph](engine::ExecutionContext*) {
        return storage::InMemoryMeshAccessor(graph);
      },
      surface_index, options, route, boxes, out, pool, contexts);
}

Octopus::Octopus(OctopusOptions options)
    : options_(options), contexts_(options.visited_mode) {
  assert(options_.surface_sample_fraction > 0.0 &&
         options_.surface_sample_fraction <= 1.0);
  surface_index_ = SurfaceIndex(SurfaceIndex::Options{
      .support_restructuring = options_.support_restructuring,
  });
}

void Octopus::Build(const TetraMesh& mesh) {
  surface_index_.Build(mesh);
  route_.Build(options_, mesh.positions(),
               surface_index_.num_surface_vertices(),
               mesh.Graph().adj.size());
  contexts_.set_num_vertices(mesh.num_vertices());
  contexts_.Ensure(1);
}

void Octopus::RangeQuery(const TetraMesh& mesh, const AABB& box,
                         std::vector<VertexId>* out) const {
  engine::QueryBatchResult batch;
  RangeQueryBatch(mesh, std::span<const AABB>(&box, 1), &batch);
  out->insert(out->end(), batch.per_query[0].begin(),
              batch.per_query[0].end());
}

void Octopus::RangeQueryBatch(const TetraMesh& mesh,
                              std::span<const AABB> boxes,
                              engine::QueryBatchResult* out,
                              engine::ThreadPool* pool) const {
  ExecuteOctopusBatch(mesh.Graph(), surface_index_, options_, route_, boxes,
                      out, pool, &contexts_);
}

size_t Octopus::FootprintBytes() const {
  return surface_index_.FootprintBytes() + route_.FootprintBytes() +
         contexts_.ScratchBytes();
}

void Octopus::OnRestructure(const TetraMesh& mesh,
                            const RestructureDelta& delta) {
  surface_index_.ApplyDelta(delta);
  contexts_.set_num_vertices(mesh.num_vertices());
}

}  // namespace octopus
