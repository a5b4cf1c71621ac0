// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit tests for TetraMesh, MeshBuilder, surface extraction, FaceRegistry,
// mesh stats and mesh IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_builder.h"
#include "mesh/mesh_io.h"
#include "mesh/mesh_stats.h"
#include "mesh/surface.h"
#include "mesh/tetra_mesh.h"
#include "sim/restructurer.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::MakeSingleTetMesh;
using testing::MakeTwoTetMesh;

// ---------- TetraMesh ----------

TEST(TetraMeshTest, SingleTetAdjacency) {
  const TetraMesh mesh = MakeSingleTetMesh();
  EXPECT_EQ(mesh.num_vertices(), 4u);
  EXPECT_EQ(mesh.num_tetrahedra(), 1u);
  EXPECT_EQ(mesh.num_edges(), 6u);
  // Complete graph K4: every vertex has the other three as neighbors.
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(mesh.degree(v), 3u);
    std::unordered_set<VertexId> n(mesh.neighbors(v).begin(),
                                   mesh.neighbors(v).end());
    EXPECT_EQ(n.size(), 3u);
    EXPECT_EQ(n.count(v), 0u) << "self-loop at " << v;
  }
  EXPECT_DOUBLE_EQ(mesh.AverageDegree(), 3.0);
}

TEST(TetraMeshTest, SharedFaceDeduplicatesEdges) {
  const TetraMesh mesh = MakeTwoTetMesh();
  EXPECT_EQ(mesh.num_vertices(), 5u);
  EXPECT_EQ(mesh.num_tetrahedra(), 2u);
  // 6 + 6 edges with the 3 shared-face edges counted once: 9.
  EXPECT_EQ(mesh.num_edges(), 9u);
  // Face vertices v1, v2, v3 connect to everything (degree 4).
  EXPECT_EQ(mesh.degree(1), 4u);
  EXPECT_EQ(mesh.degree(2), 4u);
  EXPECT_EQ(mesh.degree(3), 4u);
  // Apexes connect to the face only.
  EXPECT_EQ(mesh.degree(0), 3u);
  EXPECT_EQ(mesh.degree(4), 3u);
}

TEST(TetraMeshTest, NeighborsAreSortedAndUnique) {
  const TetraMesh mesh = MakeTwoTetMesh();
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    const auto n = mesh.neighbors(v);
    for (size_t i = 1; i < n.size(); ++i) {
      EXPECT_LT(n[i - 1], n[i]);
    }
  }
}

TEST(TetraMeshTest, PositionsMutableInPlace) {
  TetraMesh mesh = MakeSingleTetMesh();
  mesh.set_position(2, Vec3(9, 9, 9));
  EXPECT_EQ(mesh.position(2), Vec3(9, 9, 9));
  mesh.mutable_positions()[0] = Vec3(-1, -1, -1);
  EXPECT_EQ(mesh.position(0), Vec3(-1, -1, -1));
}

TEST(TetraMeshTest, ComputeBounds) {
  const TetraMesh mesh = MakeSingleTetMesh();
  const AABB b = mesh.ComputeBounds();
  EXPECT_EQ(b.min, Vec3(0, 0, 0));
  EXPECT_EQ(b.max, Vec3(1, 1, 1));
}

TEST(TetraMeshTest, IncidentTetCounts) {
  const TetraMesh mesh = MakeTwoTetMesh();
  EXPECT_EQ(mesh.incident_tet_count(0), 1u);
  EXPECT_EQ(mesh.incident_tet_count(1), 2u);
  EXPECT_EQ(mesh.incident_tet_count(4), 1u);
}

TEST(TetraMeshTest, MemoryBytesPositive) {
  const TetraMesh mesh = MakeTwoTetMesh();
  EXPECT_GT(mesh.MemoryBytes(),
            mesh.num_vertices() * sizeof(Vec3));
}

TEST(TetraMeshTest, ApplyRestructureRejectsUnknownTet) {
  TetraMesh mesh = MakeSingleTetMesh();
  RestructureDelta delta;
  delta.removed_tets.push_back(Tet{0, 1, 2, 3});
  delta.removed_tets.push_back(Tet{0, 1, 2, 3});  // duplicate removal
  EXPECT_FALSE(mesh.ApplyRestructure(delta));
  EXPECT_EQ(mesh.num_tetrahedra(), 1u);
}

TEST(TetraMeshTest, ApplyRestructureRejectsOrphaningRemoval) {
  TetraMesh mesh = MakeSingleTetMesh();
  RestructureDelta delta;
  delta.removed_tets.push_back(Tet{0, 1, 2, 3});
  // Removing the only tet orphans all four vertices.
  EXPECT_FALSE(mesh.ApplyRestructure(delta));
}

TEST(TetraMeshTest, ApplyRestructureRemovalAnyCornerOrder) {
  TetraMesh mesh = MakeTwoTetMesh();
  RestructureDelta delta;
  // Remove tet (4,1,2,3) by a permuted corner list, and re-attach v4 with
  // a different tet in the same batch so no vertex is orphaned.
  delta.removed_tets.push_back(Tet{3, 2, 1, 4});
  delta.added_tets.push_back(Tet{0, 1, 2, 4});
  EXPECT_TRUE(mesh.ApplyRestructure(delta));
  EXPECT_EQ(mesh.num_tetrahedra(), 2u);
  EXPECT_EQ(mesh.incident_tet_count(4), 1u);
  EXPECT_EQ(mesh.incident_tet_count(3), 1u);
}

TEST(TetraMeshTest, ApplyRestructureRejectsRemovalThatOrphans) {
  TetraMesh mesh = MakeTwoTetMesh();
  RestructureDelta delta;
  delta.removed_tets.push_back(Tet{4, 1, 2, 3});  // orphans v4
  EXPECT_FALSE(mesh.ApplyRestructure(delta));
  EXPECT_EQ(mesh.num_tetrahedra(), 2u);
}

TEST(TetraMeshTest, ApplyRestructureRejectsOutOfRangeAddedVertex) {
  TetraMesh mesh = MakeSingleTetMesh();
  RestructureDelta delta;
  delta.added_tets.push_back(Tet{0, 1, 2, 99});
  EXPECT_FALSE(mesh.ApplyRestructure(delta));
}

// ---------- MeshBuilder ----------

TEST(MeshBuilderTest, RejectsEmptyMesh) {
  MeshBuilder b;
  EXPECT_FALSE(b.Build().ok());
}

TEST(MeshBuilderTest, RejectsOutOfRangeVertex) {
  MeshBuilder b;
  b.AddVertex(Vec3(0, 0, 0));
  b.AddTet(0, 1, 2, 3);
  const auto result = b.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(MeshBuilderTest, RejectsDegenerateTet) {
  MeshBuilder b;
  const VertexId v0 = b.AddVertex(Vec3(0, 0, 0));
  const VertexId v1 = b.AddVertex(Vec3(1, 0, 0));
  const VertexId v2 = b.AddVertex(Vec3(0, 1, 0));
  b.AddTet(v0, v1, v2, v2);
  EXPECT_FALSE(b.Build().ok());
}

TEST(MeshBuilderTest, RejectsOrphanVertex) {
  MeshBuilder b;
  const VertexId v0 = b.AddVertex(Vec3(0, 0, 0));
  const VertexId v1 = b.AddVertex(Vec3(1, 0, 0));
  const VertexId v2 = b.AddVertex(Vec3(0, 1, 0));
  const VertexId v3 = b.AddVertex(Vec3(0, 0, 1));
  b.AddVertex(Vec3(5, 5, 5));  // never referenced
  b.AddTet(v0, v1, v2, v3);
  EXPECT_FALSE(b.Build().ok());
}

TEST(MeshBuilderTest, LatticeVertexMapDeduplicates) {
  MeshBuilder b;
  LatticeVertexMap lattice(&b);
  const VertexId a = lattice.GetOrCreate(1, 2, 3, Vec3(1, 2, 3));
  const VertexId c = lattice.GetOrCreate(1, 2, 3, Vec3(9, 9, 9));
  EXPECT_EQ(a, c);
  EXPECT_EQ(b.num_vertices(), 1u);
  const VertexId d = lattice.GetOrCreate(-1, 2, 3, Vec3(-1, 2, 3));
  EXPECT_NE(a, d);
  EXPECT_EQ(lattice.size(), 2u);
}

// ---------- Surface extraction ----------

TEST(SurfaceTest, FaceKeyCanonical) {
  EXPECT_EQ(MakeFaceKey(3, 1, 2), (FaceKey{1, 2, 3}));
  EXPECT_EQ(MakeFaceKey(1, 2, 3), (FaceKey{1, 2, 3}));
  EXPECT_EQ(MakeFaceKey(2, 3, 1), (FaceKey{1, 2, 3}));
}

TEST(SurfaceTest, SingleTetAllOnSurface) {
  const TetraMesh mesh = MakeSingleTetMesh();
  const SurfaceInfo s = ExtractSurface(mesh);
  EXPECT_EQ(s.surface_vertices.size(), 4u);
  EXPECT_EQ(s.surface_faces.size(), 4u);
}

TEST(SurfaceTest, TwoTetsSharedFaceIsInterior) {
  const TetraMesh mesh = MakeTwoTetMesh();
  const SurfaceInfo s = ExtractSurface(mesh);
  // All 5 vertices are on the surface, but the shared face is not.
  EXPECT_EQ(s.surface_vertices.size(), 5u);
  EXPECT_EQ(s.surface_faces.size(), 6u);
  const FaceKey shared = MakeFaceKey(1, 2, 3);
  for (const FaceKey& f : s.surface_faces) {
    EXPECT_NE(f, shared);
  }
}

TEST(SurfaceTest, BoxMeshSurfaceIsBoundaryLattice) {
  const int n = 5;
  auto mesh_result =
      GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  ASSERT_TRUE(mesh_result.ok());
  const TetraMesh& mesh = mesh_result.Value();
  const SurfaceInfo s = ExtractSurface(mesh);
  const size_t total = (n + 1) * (n + 1) * (n + 1);
  const size_t interior = (n - 1) * (n - 1) * (n - 1);
  EXPECT_EQ(mesh.num_vertices(), total);
  EXPECT_EQ(s.surface_vertices.size(), total - interior);
  // Geometric cross-check: surface vertices are exactly those with a
  // coordinate on the domain boundary.
  for (VertexId v : s.surface_vertices) {
    const Vec3& p = mesh.position(v);
    const bool on_boundary = p.x == 0.0f || p.x == 1.0f || p.y == 0.0f ||
                             p.y == 1.0f || p.z == 0.0f || p.z == 1.0f;
    EXPECT_TRUE(on_boundary) << "vertex " << v << " at " << p;
  }
}

// ---------- FaceRegistry ----------

TEST(FaceRegistryTest, MatchesExtractionAfterBuild) {
  const TetraMesh mesh = MakeTwoTetMesh();
  FaceRegistry reg;
  reg.Build(CountFaces(mesh));
  const SurfaceInfo s = ExtractSurface(mesh);
  EXPECT_EQ(reg.num_surface_vertices(), s.surface_vertices.size());
  for (VertexId v : s.surface_vertices) {
    EXPECT_TRUE(reg.IsSurfaceVertex(v));
  }
}

TEST(FaceRegistryTest, DeltaTracksSurfaceTransitions) {
  TetraMesh mesh = MakeSingleTetMesh();
  FaceRegistry reg;
  reg.Build(CountFaces(mesh));

  // Centroid split: remove the tet, add 4 around a new vertex 4. The new
  // vertex is interior; the original 4 stay on the surface.
  RestructureDelta delta;
  delta.removed_tets.push_back(Tet{0, 1, 2, 3});
  const VertexId m = mesh.AddVertexForRestructure(Vec3(0.25f, 0.25f, 0.25f));
  delta.added_vertices.push_back(m);
  delta.added_tets.push_back(Tet{m, 1, 2, 3});
  delta.added_tets.push_back(Tet{0, m, 2, 3});
  delta.added_tets.push_back(Tet{0, 1, m, 3});
  delta.added_tets.push_back(Tet{0, 1, 2, m});
  ASSERT_TRUE(mesh.ApplyRestructure(delta));

  std::vector<FaceRegistry::VertexTransition> transitions;
  reg.ApplyDelta(delta, &transitions);
  EXPECT_TRUE(transitions.empty())
      << "centroid split must not change surface membership";
  for (VertexId v = 0; v < 4; ++v) EXPECT_TRUE(reg.IsSurfaceVertex(v));
  EXPECT_FALSE(reg.IsSurfaceVertex(m));

  // Cross-check against a fresh registry.
  FaceRegistry fresh;
  fresh.Build(CountFaces(mesh));
  EXPECT_EQ(fresh.num_surface_vertices(), reg.num_surface_vertices());
}

TEST(FaceRegistryTest, RemovalExposesInteriorVertex) {
  // Split a tet at its centroid (vertex m becomes interior), then remove
  // one sub-tet: m's interior faces surface and m joins the surface.
  TetraMesh mesh = MakeSingleTetMesh();
  RestructureDelta split;
  split.removed_tets.push_back(Tet{0, 1, 2, 3});
  const VertexId m = mesh.AddVertexForRestructure(Vec3(0.25f, 0.25f, 0.25f));
  split.added_vertices.push_back(m);
  split.added_tets.push_back(Tet{m, 1, 2, 3});
  split.added_tets.push_back(Tet{0, m, 2, 3});
  split.added_tets.push_back(Tet{0, 1, m, 3});
  split.added_tets.push_back(Tet{0, 1, 2, m});
  ASSERT_TRUE(mesh.ApplyRestructure(split));

  FaceRegistry reg;
  reg.Build(CountFaces(mesh));
  ASSERT_FALSE(reg.IsSurfaceVertex(m));

  RestructureDelta removal;
  removal.removed_tets.push_back(Tet{m, 1, 2, 3});
  ASSERT_TRUE(mesh.ApplyRestructure(removal));
  std::vector<FaceRegistry::VertexTransition> transitions;
  reg.ApplyDelta(removal, &transitions);

  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].vertex, m);
  EXPECT_TRUE(transitions[0].now_on_surface);
  EXPECT_TRUE(reg.IsSurfaceVertex(m));

  FaceRegistry fresh;
  fresh.Build(CountFaces(mesh));
  EXPECT_EQ(fresh.num_surface_vertices(), reg.num_surface_vertices());
}

// ---------- Face-count parity ----------
//
// The oracle is the map-based extraction the counting-sort `FaceCount`
// replaced, kept verbatim: one hash-map entry per distinct face.

SurfaceInfo MapExtractSurface(const TetraMesh& mesh) {
  // Global face list as a multiplicity map. A face is shared by at most two
  // adjacent tets, so values saturate at 2.
  std::unordered_map<FaceKey, uint8_t, FaceKeyHash> counts;
  counts.reserve(mesh.num_tetrahedra() * 2);  // ~2 unique faces per tet
  for (const Tet& t : mesh.tetrahedra()) {
    for (const FaceKey& f : TetFaces(t)) {
      ++counts[f];
    }
  }

  SurfaceInfo info;
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
  // Canonical face order so extraction output is deterministic for tests.
  std::sort(info.surface_faces.begin(), info.surface_faces.end());
  return info;
}

size_t MapDistinctFaces(const TetraMesh& mesh) {
  std::unordered_set<FaceKey, FaceKeyHash> faces;
  for (const Tet& t : mesh.tetrahedra()) {
    for (const FaceKey& f : TetFaces(t)) faces.insert(f);
  }
  return faces.size();
}

// Extraction, the face count and a registry built from it all agree with
// the oracle. Returns the surface for further checks.
SurfaceInfo ExpectOracleParity(const TetraMesh& mesh) {
  const SurfaceInfo want = MapExtractSurface(mesh);
  const SurfaceInfo got = ExtractSurface(mesh);
  EXPECT_EQ(got.surface_vertices, want.surface_vertices);
  EXPECT_EQ(got.surface_faces, want.surface_faces);

  const TetFaceCount faces = CountFaces(mesh);
  EXPECT_EQ(faces.num_distinct(), MapDistinctFaces(mesh));
  FaceRegistry reg;
  reg.Build(faces);
  EXPECT_EQ(reg.num_faces(), faces.num_distinct());
  EXPECT_EQ(reg.num_surface_vertices(), want.surface_vertices.size());
  for (VertexId v : want.surface_vertices) {
    EXPECT_TRUE(reg.IsSurfaceVertex(v)) << "vertex " << v;
  }
  return got;
}

TEST(FaceCountParityTest, NeuroMeshes) {
  for (int level : {0, 1}) {
    SCOPED_TRACE(level);
    auto r = MakeNeuroMesh(level, 0.05);
    ASSERT_TRUE(r.ok());
    const SurfaceInfo s = ExpectOracleParity(r.Value());
    EXPECT_GT(s.surface_faces.size(), 0u);
  }
}

TEST(FaceCountParityTest, EarthquakeMesh) {
  auto r = MakeEarthquakeMesh(EarthquakeResolution::kSF2, 0.1);
  ASSERT_TRUE(r.ok());
  ExpectOracleParity(r.Value());
}

TEST(FaceCountParityTest, CubeGrid) {
  auto r = GenerateBoxMesh(7, 5, 6, AABB(Vec3(0, 0, 0), Vec3(7, 5, 6)));
  ASSERT_TRUE(r.ok());
  const SurfaceInfo s = ExpectOracleParity(r.Value());
  // Two boundary triangles per unit square of the box's faces.
  EXPECT_EQ(s.surface_faces.size(), 4u * (7 * 5 + 5 * 6 + 7 * 6));
}

TEST(FaceCountParityTest, AfterRestructuringDeltas) {
  TetraMesh mesh =
      GenerateBoxMesh(4, 4, 4, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))).MoveValue();
  Rng rng(7);
  ASSERT_TRUE(RandomRefinement(&mesh, 12, &rng).ok());
  ExpectOracleParity(mesh);
  const FaceKey glued = ExtractSurface(mesh).surface_faces.front();
  ASSERT_TRUE(AddTetOnSurfaceFace(&mesh, glued, Vec3(-1, -1, -1)).ok());
  ExpectOracleParity(mesh);
  // The last tet of the refinement holds a centroid vertex that stays in
  // three other tets, so removing it orphans nothing and exposes faces.
  ASSERT_TRUE(RemoveTet(&mesh, static_cast<TetId>(mesh.num_tetrahedra() - 2))
                  .ok());
  ASSERT_TRUE(SplitTetAtCentroid(&mesh, 0).ok());
  ExpectOracleParity(mesh);
}

TEST(FaceCountParityTest, NoCells) {
  const TetraMesh empty;
  EXPECT_TRUE(ExpectOracleParity(empty).surface_vertices.empty());
  const TetraMesh loose({Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)}, {});
  const SurfaceInfo s = ExpectOracleParity(loose);
  EXPECT_TRUE(s.surface_vertices.empty());
  EXPECT_TRUE(s.surface_faces.empty());
}

TEST(FaceCountParityTest, OneAndTwoCells) {
  EXPECT_EQ(ExpectOracleParity(MakeSingleTetMesh()).surface_faces.size(),
            4u);
  const SurfaceInfo s = ExpectOracleParity(MakeTwoTetMesh());
  EXPECT_EQ(s.surface_faces.size(), 6u);
  EXPECT_EQ(std::count(s.surface_faces.begin(), s.surface_faces.end(),
                       MakeFaceKey(1, 2, 3)),
            0);
}

TEST(FaceCountParityTest, DuplicatedCellHasNoSurface) {
  const std::vector<Vec3> corners = {Vec3(0, 0, 0), Vec3(1, 0, 0),
                                     Vec3(0, 1, 0), Vec3(0, 0, 1)};
  const TetraMesh twice(corners, {Tet{0, 1, 2, 3}, Tet{3, 1, 0, 2}});
  const SurfaceInfo s = ExpectOracleParity(twice);
  EXPECT_TRUE(s.surface_faces.empty());
  EXPECT_TRUE(s.surface_vertices.empty());
}

TEST(FaceCountParityTest, FaceSharedByThreeTetsIsNotSurface) {
  std::vector<Vec3> positions = {Vec3(0, 0, 0), Vec3(1, 0, 0),
                                 Vec3(0, 1, 0), Vec3(0, 0, 1),
                                 Vec3(0, 0, -1), Vec3(1, 1, 1)};
  const TetraMesh fan(std::move(positions),
                      {Tet{0, 1, 2, 3}, Tet{4, 0, 1, 2}, Tet{2, 5, 1, 0}});
  const SurfaceInfo s = ExpectOracleParity(fan);
  // Each tet keeps its three other faces; {0, 1, 2} occurs three times.
  EXPECT_EQ(s.surface_faces.size(), 9u);
  EXPECT_EQ(std::count(s.surface_faces.begin(), s.surface_faces.end(),
                       MakeFaceKey(0, 1, 2)),
            0);
  EXPECT_EQ(CountFaces(fan).num_distinct(), 10u);
}

// ---------- MeshStats ----------

TEST(MeshStatsTest, BoxMeshStats) {
  auto mesh_result =
      GenerateBoxMesh(6, 6, 6, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  ASSERT_TRUE(mesh_result.ok());
  const MeshStats s = ComputeMeshStats(mesh_result.Value());
  EXPECT_EQ(s.num_vertices, 343u);
  EXPECT_EQ(s.num_tetrahedra, 6u * 216u);
  EXPECT_GT(s.mesh_degree, 9.0);
  EXPECT_LT(s.mesh_degree, 15.0);
  EXPECT_GT(s.surface_to_volume, 0.0);
  EXPECT_LT(s.surface_to_volume, 1.0);
  EXPECT_EQ(s.num_surface_vertices, 343u - 125u);
  EXPECT_GT(s.memory_bytes, 0u);
}

// ---------- Mesh IO ----------

TEST(MeshIOTest, RoundTrip) {
  const TetraMesh original = MakeTwoTetMesh();
  const std::string path = ::testing::TempDir() + "/octopus_roundtrip.mesh";
  ASSERT_TRUE(SaveMesh(original, path).ok());
  auto loaded = LoadMesh(path);
  ASSERT_TRUE(loaded.ok());
  const TetraMesh& mesh = loaded.Value();
  EXPECT_EQ(mesh.num_vertices(), original.num_vertices());
  EXPECT_EQ(mesh.num_tetrahedra(), original.num_tetrahedra());
  EXPECT_EQ(mesh.num_edges(), original.num_edges());
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_EQ(mesh.position(v), original.position(v));
  }
  std::remove(path.c_str());
}

TEST(MeshIOTest, LoadMissingFileFails) {
  const auto result = LoadMesh("/nonexistent/path/mesh.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST(MeshIOTest, LoadGarbageFails) {
  const std::string path = ::testing::TempDir() + "/octopus_garbage.mesh";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a mesh file at all", f);
  std::fclose(f);
  const auto result = LoadMesh(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace octopus
