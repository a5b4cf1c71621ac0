// Copyright 2026 The OCTOPUS Reproduction Authors
// Reproduces paper Fig. 7 — sensitivity analysis of OCTOPUS vs LinearScan:
//  (a,b) total response time & speedup vs mesh detail, fixed query volume
//  (c,d) same, with query volume shrunk to keep the result count fixed
//  (e,f) total response time & speedup vs number of time steps
//  (g,h) speedup vs query selectivity
// The OCTOPUS column is the paper's pure OCTOPUS (`route_to_scan` off:
// no Eq. 6 routing); the LinearScan column times the batch-tiled scan
// kernel (index/tiled_scan.h), which skips vertex blocks whose bounding
// box misses a box, so it runs faster than the paper's plain scan.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "index/linear_scan.h"
#include "mesh/generators/datasets.h"
#include "octopus/query_executor.h"
#include "sim/workload.h"

namespace {

using octopus::AABB;
using octopus::LinearScan;
using octopus::Octopus;
using octopus::Table;
using octopus::TetraMesh;
namespace bench = octopus::bench;

struct Pair {
  double octopus_s = 0.0;
  double scan_s = 0.0;
  double Speedup() const { return scan_s / octopus_s; }
};

Pair RunBoth(const TetraMesh& mesh, const bench::StepWorkload& workload) {
  const bench::DeformerFactory deformer = bench::NeuroDeformerFactory(mesh);
  Octopus octopus(octopus::OctopusOptions{.route_to_scan = false});
  LinearScan scan;
  Pair p;
  p.octopus_s =
      bench::RunApproach(&octopus, mesh, deformer, workload).TotalSeconds();
  p.scan_s =
      bench::RunApproach(&scan, mesh, deformer, workload).TotalSeconds();
  return p;
}

// Re-targets a workload's query boxes onto `mesh` without changing their
// volumes: recenters each box at a random vertex of `mesh`. Used for the
// fixed-query-volume experiment (a,b), where the same physical query size
// runs against every detail level.
bench::StepWorkload RecenterWorkload(const bench::StepWorkload& base,
                                     const TetraMesh& mesh, uint64_t seed) {
  octopus::Rng rng(seed);
  bench::StepWorkload out = base;
  for (auto& step : out.per_step) {
    for (AABB& q : step) {
      const octopus::Vec3 half = q.Extent() * 0.5f;
      const octopus::Vec3 center = mesh.position(static_cast<octopus::VertexId>(
          rng.NextBelow(mesh.num_vertices())));
      q = AABB::FromCenterHalfExtent(center, half);
    }
  }
  return out;
}

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(60);
  std::printf("OCTOPUS reproduction — Fig. 7 sensitivity analysis "
              "(scale %.3g, %d steps)\n\n",
              scale, steps);

  // Generate all 5 detail levels once.
  std::vector<TetraMesh> levels;
  for (int level = 0; level < octopus::kNumNeuroLevels; ++level) {
    auto r = octopus::MakeNeuroMesh(level, scale);
    if (!r.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    levels.push_back(r.MoveValue());
  }

  // ---- (a,b) mesh detail, fixed query volume ----
  {
    // Queries sized for 0.1% selectivity on the COARSEST mesh, reused at
    // the same physical volume on every level (result count grows).
    const bench::StepWorkload base = bench::MakeStepWorkload(
        levels[0], steps, 15, 15, 0.001, 0.001, 0x71A);
    Table t("Fig. 7(a,b) — Mesh detail, fixed query volume");
    t.SetHeader({"Mesh detail [#verts]", "LinearScan [s]", "OCTOPUS [s]",
                 "Speedup [x]"});
    for (size_t level = 0; level < levels.size(); ++level) {
      const bench::StepWorkload workload =
          RecenterWorkload(base, levels[level], 0x71B + level);
      const Pair p = RunBoth(levels[level], workload);
      t.AddRow({Table::Count(levels[level].num_vertices()),
                Table::Num(p.scan_s, 3), Table::Num(p.octopus_s, 3),
                Table::Num(p.Speedup(), 1)});
    }
    t.Print();
    std::printf("Expected shape: scan time grows ~linearly with mesh size; "
                "OCTOPUS speedup grows with detail\n(paper: 8x -> 10x).\n\n");
  }

  // ---- (c,d) mesh detail, fixed result count ----
  {
    Table t("Fig. 7(c,d) — Mesh detail, fixed result count");
    t.SetHeader({"Mesh detail [#verts]", "LinearScan [s]", "OCTOPUS [s]",
                 "Speedup [x]"});
    // Target count: 0.1% of the coarsest level.
    const double target_count = 0.001 * levels[0].num_vertices();
    for (const TetraMesh& mesh : levels) {
      const double sel = target_count / mesh.num_vertices();
      const bench::StepWorkload workload =
          bench::MakeStepWorkload(mesh, steps, 15, 15, sel, sel, 0x7C0);
      const Pair p = RunBoth(mesh, workload);
      t.AddRow({Table::Count(mesh.num_vertices()), Table::Num(p.scan_s, 3),
                Table::Num(p.octopus_s, 3), Table::Num(p.Speedup(), 1)});
    }
    t.Print();
    std::printf("Expected shape: scan time still grows with mesh size while "
                "OCTOPUS time is decoupled from it;\nspeedup grows strongly "
                "(paper: 8x -> 23x).\n\n");
  }

  // ---- (e,f) number of time steps ----
  {
    Table t("Fig. 7(e,f) — Time steps (mesh: level 2, selectivity 0.1%)");
    t.SetHeader({"Time steps [#]", "LinearScan [s]", "OCTOPUS [s]",
                 "Speedup [x]"});
    const TetraMesh& mesh = levels[2];
    for (const int n : {20, 40, 60, 80, 100}) {
      const bench::StepWorkload workload =
          bench::MakeStepWorkload(mesh, n, 15, 15, 0.001, 0.001, 0x7E0);
      const Pair p = RunBoth(mesh, workload);
      t.AddRow({std::to_string(n), Table::Num(p.scan_s, 3),
                Table::Num(p.octopus_s, 3), Table::Num(p.Speedup(), 1)});
    }
    t.Print();
    std::printf("Expected shape: both grow linearly with step count; the "
                "speedup stays ~constant (paper: 9.5x).\n\n");
  }

  // ---- (g,h) query selectivity ----
  {
    // Uses the most detailed level: its lower surface:volume ratio makes
    // the crawl share (and hence the selectivity trend) visible.
    Table t("Fig. 7(g,h) — Query selectivity (mesh: level 4)");
    t.SetHeader({"Selectivity [%]", "LinearScan [s]", "OCTOPUS [s]",
                 "Speedup [x]"});
    const TetraMesh& mesh = levels[4];
    for (const double sel_pct : {0.01, 0.05, 0.1, 0.15, 0.2}) {
      const double sel = sel_pct / 100.0;
      const bench::StepWorkload workload =
          bench::MakeStepWorkload(mesh, steps, 15, 15, sel, sel, 0x7F0);
      const Pair p = RunBoth(mesh, workload);
      t.AddRow({Table::Num(sel_pct, 2), Table::Num(p.scan_s, 3),
                Table::Num(p.octopus_s, 3), Table::Num(p.Speedup(), 1)});
    }
    t.Print();
    std::printf("Expected shape: scan time flat in selectivity; OCTOPUS "
                "crawling grows with it, so the speedup\ndecreases (paper: "
                "17x -> 7x).\n");
  }
  return 0;
}
