// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit and property tests for hexahedral meshes and the hexahedral
// OCTOPUS executor (paper Fig. 1(b): the strategy is primitive-agnostic).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "mesh/generators/hexa_generator.h"
#include "common/rng.h"
#include "mesh/hexa_mesh.h"
#include "octopus/hex_octopus.h"
#include "sim/deformer.h"

namespace octopus {
namespace {

HexaMesh MakeHexBox(int n) {
  return GenerateHexBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

std::vector<VertexId> BruteForce(const HexaMesh& mesh, const AABB& box) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    if (box.Contains(mesh.position(v))) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(QuadKeyTest, Canonicalization) {
  EXPECT_EQ(MakeQuadKey(4, 1, 3, 2), (QuadKey{1, 2, 3, 4}));
  EXPECT_EQ(MakeQuadKey(1, 2, 3, 4), (QuadKey{1, 2, 3, 4}));
}

TEST(HexFacesTest, SingleCellFaces) {
  const HexCell cell{0, 1, 2, 3, 4, 5, 6, 7};
  const auto faces = HexFaces(cell);
  // x = 0 face holds corners with bit0 == 0: {0, 2, 4, 6}.
  EXPECT_EQ(faces[0], (QuadKey{0, 2, 4, 6}));
  // x = 1 face: {1, 3, 5, 7}.
  EXPECT_EQ(faces[1], (QuadKey{1, 3, 5, 7}));
  // All six faces distinct.
  EXPECT_EQ(std::set<QuadKey>(faces.begin(), faces.end()).size(), 6u);
}

TEST(HexaMeshTest, SingleCellTopology) {
  const HexaMesh mesh = MakeHexBox(1);
  EXPECT_EQ(mesh.num_vertices(), 8u);
  EXPECT_EQ(mesh.num_cells(), 1u);
  EXPECT_EQ(mesh.num_edges(), 12u);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_EQ(mesh.degree(v), 3u) << "corner " << v;
  }
  EXPECT_DOUBLE_EQ(mesh.AverageDegree(), 3.0);
}

TEST(HexaMeshTest, InteriorDegreeIsSix) {
  // Hex lattice vertices connect only along axes: interior degree 6 (vs
  // 14 for Kuhn tetrahedra) — the "degrees of freedom" difference the
  // paper attributes to the primitive choice.
  const HexaMesh mesh = MakeHexBox(6);
  const AABB interior(Vec3(0.3f, 0.3f, 0.3f), Vec3(0.7f, 0.7f, 0.7f));
  size_t checked = 0;
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    if (interior.Contains(mesh.position(v))) {
      EXPECT_EQ(mesh.degree(v), 6u);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(HexaMeshTest, BoxMeshCounts) {
  const HexaMesh mesh = MakeHexBox(4);
  EXPECT_EQ(mesh.num_vertices(), 125u);
  EXPECT_EQ(mesh.num_cells(), 64u);
  // Edges of a 4^3 hex lattice: 3 * 4 * 5 * 5 per direction.
  EXPECT_EQ(mesh.num_edges(), 3u * 4u * 5u * 5u);
}

TEST(HexaMeshTest, SharedFaceVerticesDeduplicated) {
  auto r = GenerateHexBoxMesh(2, 1, 1, AABB(Vec3(0, 0, 0), Vec3(2, 1, 1)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.Value().num_vertices(), 12u);  // 3 x 2 x 2 lattice
  EXPECT_EQ(r.Value().num_cells(), 2u);
}

TEST(HexaGeneratorTest, RejectsBadArguments) {
  EXPECT_FALSE(
      GenerateHexBoxMesh(0, 1, 1, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))).ok());
  EXPECT_FALSE(GenerateHexBoxMesh(2, 2, 2, AABB()).ok());
  EXPECT_FALSE(GenerateMaskedHexGrid(2, 2, 2,
                                     AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                                     [](int, int, int) { return false; })
                   .ok());
}

TEST(HexSurfaceTest, SingleCellAllOnSurface) {
  const HexaMesh mesh = MakeHexBox(1);
  const HexSurfaceInfo s = ExtractHexSurface(mesh);
  EXPECT_EQ(s.surface_vertices.size(), 8u);
  EXPECT_EQ(s.surface_faces.size(), 6u);
}

TEST(HexSurfaceTest, BoxSurfaceIsBoundaryLattice) {
  const int n = 5;
  const HexaMesh mesh = MakeHexBox(n);
  const HexSurfaceInfo s = ExtractHexSurface(mesh);
  const size_t total = (n + 1) * (n + 1) * (n + 1);
  const size_t interior = (n - 1) * (n - 1) * (n - 1);
  EXPECT_EQ(s.surface_vertices.size(), total - interior);
  EXPECT_EQ(s.surface_faces.size(), 6u * n * n);
  for (VertexId v : s.surface_vertices) {
    const Vec3& p = mesh.position(v);
    EXPECT_TRUE(p.x == 0.0f || p.x == 1.0f || p.y == 0.0f || p.y == 1.0f ||
                p.z == 0.0f || p.z == 1.0f);
  }
}

TEST(HexSurfaceTest, SharedFaceIsInterior) {
  auto r = GenerateHexBoxMesh(2, 1, 1, AABB(Vec3(0, 0, 0), Vec3(2, 1, 1)));
  ASSERT_TRUE(r.ok());
  const HexSurfaceInfo s = ExtractHexSurface(r.Value());
  // 2 cells x 6 faces = 12 face instances, 1 shared -> 10 surface faces.
  EXPECT_EQ(s.surface_faces.size(), 10u);
  // All 12 vertices still on the surface.
  EXPECT_EQ(s.surface_vertices.size(), 12u);
}

// ---------- Face-count parity ----------
//
// The oracle is the map-based quad extraction the counting-sort
// `FaceCount` replaced, kept verbatim with the hash it used.

struct QuadKeyHash {
  size_t operator()(const QuadKey& f) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (VertexId v : f) {
      uint64_t x = v;
      x *= 0xFF51AFD7ED558CCDull;
      x ^= x >> 33;
      h = (h ^ x) * 0xC4CEB9FE1A85EC53ull;
    }
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

HexSurfaceInfo MapExtractHexSurface(const HexaMesh& mesh) {
  std::unordered_map<QuadKey, uint8_t, QuadKeyHash> counts;
  counts.reserve(mesh.num_cells() * 3);
  for (const HexCell& cell : mesh.cells()) {
    for (const QuadKey& f : HexFaces(cell)) {
      ++counts[f];
    }
  }
  HexSurfaceInfo info;
  std::vector<bool> on_surface(mesh.num_vertices(), false);
  for (const auto& [face, count] : counts) {
    if (count == 1) {
      info.surface_faces.push_back(face);
      for (VertexId v : face) on_surface[v] = true;
    }
  }
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    if (on_surface[v]) info.surface_vertices.push_back(v);
  }
  std::sort(info.surface_faces.begin(), info.surface_faces.end());
  return info;
}

HexSurfaceInfo ExpectOracleParity(const HexaMesh& mesh) {
  const HexSurfaceInfo want = MapExtractHexSurface(mesh);
  const HexSurfaceInfo got = ExtractHexSurface(mesh);
  EXPECT_EQ(got.surface_vertices, want.surface_vertices);
  EXPECT_EQ(got.surface_faces, want.surface_faces);
  return got;
}

TEST(HexFaceCountParityTest, Grids) {
  for (int n : {1, 2, 5}) {
    SCOPED_TRACE(n);
    ExpectOracleParity(MakeHexBox(n));
  }
  auto slab = GenerateHexBoxMesh(6, 3, 4, AABB(Vec3(0, 0, 0), Vec3(6, 3, 4)));
  ASSERT_TRUE(slab.ok());
  EXPECT_EQ(ExpectOracleParity(slab.Value()).surface_faces.size(),
            2u * (6 * 3 + 3 * 4 + 6 * 4));
  auto slabs = GenerateMaskedHexGrid(
      6, 6, 7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      [](int, int, int k) { return k <= 1 || k >= 5; });
  ASSERT_TRUE(slabs.ok());
  ExpectOracleParity(slabs.Value());
}

TEST(HexFaceCountParityTest, DegenerateInputs) {
  std::vector<Vec3> positions(16, Vec3(0, 0, 0));
  const HexCell a{0, 1, 2, 3, 4, 5, 6, 7};
  // b and c put their x = 0 face on a's x = 1 face {1, 3, 5, 7}.
  const HexCell b{1, 8, 3, 9, 5, 10, 7, 11};
  const HexCell c{1, 12, 3, 13, 5, 14, 7, 15};
  const HexSurfaceInfo none = ExpectOracleParity(HexaMesh(positions, {}));
  EXPECT_TRUE(none.surface_faces.empty());
  EXPECT_EQ(ExpectOracleParity(HexaMesh(positions, {a})).surface_faces.size(),
            6u);
  const HexSurfaceInfo shared = ExpectOracleParity(HexaMesh(positions, {a, b}));
  EXPECT_EQ(shared.surface_faces.size(), 10u);
  const HexSurfaceInfo twice = ExpectOracleParity(HexaMesh(positions, {a, a}));
  EXPECT_TRUE(twice.surface_faces.empty());
  EXPECT_TRUE(twice.surface_vertices.empty());
  const HexSurfaceInfo three =
      ExpectOracleParity(HexaMesh(positions, {a, b, c}));
  EXPECT_EQ(three.surface_faces.size(), 15u);
  EXPECT_EQ(std::count(three.surface_faces.begin(), three.surface_faces.end(),
                       (QuadKey{1, 3, 5, 7})),
            0);
}

TEST(HexOctopusTest, ExactOnStaticMesh) {
  const HexaMesh mesh = MakeHexBox(10);
  HexOctopus octo;
  octo.Build(mesh);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const Vec3 c = rng.NextPointIn(AABB(Vec3(0.1f, 0.1f, 0.1f),
                                        Vec3(0.9f, 0.9f, 0.9f)));
    const float h = rng.NextFloat(0.08f, 0.3f);
    const AABB q = AABB::FromCenterHalfExtent(c, Vec3(h, h, h));
    std::vector<VertexId> got;
    octo.RangeQuery(mesh, q, &got);
    ASSERT_EQ(Sorted(got), BruteForce(mesh, q)) << "query " << i;
  }
}

TEST(HexOctopusTest, ExactUnderDeformation) {
  HexaMesh mesh = MakeHexBox(12);
  HexOctopus octo;
  octo.Build(mesh);
  // In-place bounded jitter around rest positions, like the tetrahedral
  // simulations. (Hex graphs have only the 6 axis neighbors, so the
  // discrete-reachability margin is thinner than for tetrahedra: keep
  // displacements well below the 1/12 spacing.)
  const std::vector<Vec3> rest = mesh.positions();
  Rng rng(6);
  for (int step = 1; step <= 6; ++step) {
    for (size_t v = 0; v < mesh.num_vertices(); ++v) {
      mesh.mutable_positions()[v] =
          rest[v] + rng.NextUnitVector() *
                        (0.012f * static_cast<float>(rng.NextDouble()));
    }
    for (int q = 0; q < 5; ++q) {
      const Vec3 c = rng.NextPointIn(AABB(Vec3(0.15f, 0.15f, 0.15f),
                                          Vec3(0.85f, 0.85f, 0.85f)));
      const AABB box =
          AABB::FromCenterHalfExtent(c, Vec3(0.18f, 0.18f, 0.18f));
      std::vector<VertexId> got;
      octo.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForce(mesh, box))
          << "step " << step << " query " << q;
    }
  }
}

TEST(HexOctopusTest, DisjointComponentsViaSurfaceProbe) {
  // The Fig. 3 scenario on hexahedra: two slabs, query spanning both.
  auto r = GenerateMaskedHexGrid(
      6, 6, 7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      [](int, int, int k) { return k <= 1 || k >= 5; });
  ASSERT_TRUE(r.ok());
  const HexaMesh& mesh = r.Value();
  HexOctopus octo;
  octo.Build(mesh);
  const AABB q(Vec3(0.3f, 0.3f, 0.0f), Vec3(0.7f, 0.7f, 1.0f));
  std::vector<VertexId> got;
  octo.RangeQuery(mesh, q, &got);
  EXPECT_EQ(Sorted(got), BruteForce(mesh, q));
}

TEST(HexOctopusTest, EnclosedQueryUsesDirectedWalk) {
  const HexaMesh mesh = MakeHexBox(12);
  HexOctopus octo;
  octo.Build(mesh);
  const AABB q(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  std::vector<VertexId> got;
  octo.RangeQuery(mesh, q, &got);
  EXPECT_EQ(Sorted(got), BruteForce(mesh, q));
  EXPECT_EQ(octo.stats().walk_invocations, 1u);
}

TEST(HexOctopusTest, SurfaceApproximationSampling) {
  const HexaMesh mesh = MakeHexBox(12);
  HexOctopus octo(OctopusOptions{.surface_sample_fraction = 0.1,
                                 .route_to_scan = false});
  octo.Build(mesh);
  std::vector<VertexId> got;
  octo.RangeQuery(mesh, AABB(Vec3(0, 0, 0), Vec3(0.5f, 0.5f, 0.5f)), &got);
  EXPECT_LE(octo.stats().probed_vertices,
            octo.surface_index().num_surface_vertices() / 9);
}

TEST(HexOctopusTest, FootprintBelowMesh) {
  const HexaMesh mesh = MakeHexBox(10);
  HexOctopus octo;
  octo.Build(mesh);
  EXPECT_GT(octo.FootprintBytes(), 0u);
  EXPECT_LT(octo.FootprintBytes(), mesh.MemoryBytes());
}

}  // namespace
}  // namespace octopus
