// Copyright 2026 The OCTOPUS Reproduction Authors
// Reproduces paper Figs. 8 and 9 — convex (earthquake) mesh experiments:
//  Fig. 8    dataset characterization of the SF2/SF1 basin meshes
//  Fig. 9(a) total response time: OCTOPUS-CON vs OCTOPUS vs LinearScan
//  Fig. 9(b) phase breakdown (surface probe / directed walk / crawling)
//  Fig. 9(c) directed-walk vertices visited vs grid resolution
//  Fig. 9(d) grid memory overhead vs grid resolution
// The OCTOPUS column is the paper's pure OCTOPUS (`route_to_scan` off:
// no Eq. 6 routing); the LinearScan column times the batch-tiled scan
// kernel (index/tiled_scan.h), which skips vertex blocks whose bounding
// box misses a box, so it runs faster than the paper's plain scan.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "index/linear_scan.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_stats.h"
#include "octopus/octopus_con.h"
#include "octopus/query_executor.h"
#include "sim/wave_deformer.h"

namespace {

using octopus::EarthquakeResolution;
using octopus::Table;
using octopus::TetraMesh;
namespace bench = octopus::bench;

bench::DeformerFactory QuakeDeformer() {
  return []() {
    // Affine ground shaking: convexity-preserving (Sec. IV-F requirement).
    return std::make_unique<octopus::WaveDeformer>(0.02f, 0.01f);
  };
}

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(60);
  std::printf("OCTOPUS reproduction — Figs. 8 & 9: convex earthquake meshes "
              "(scale %.3g, %d steps, 15 queries/step, sel 0.1%%)\n\n",
              scale, steps);

  std::vector<TetraMesh> meshes;
  std::vector<std::string> names;
  for (const auto res :
       {EarthquakeResolution::kSF2, EarthquakeResolution::kSF1}) {
    auto r = octopus::MakeEarthquakeMesh(res, scale);
    if (!r.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    meshes.push_back(r.MoveValue());
    names.push_back(octopus::EarthquakeMeshName(res));
  }

  // ---- Fig. 8: dataset characterization ----
  {
    Table t("Fig. 8 — Earthquake convex mesh datasets");
    t.SetHeader({"Dataset", "Size [MB]", "# Tetrahedra", "# Vertices",
                 "Mesh Degree", "Surface:Volume", "(paper S:V)"});
    const double paper_sv[2] = {0.16, 0.09};
    for (size_t i = 0; i < meshes.size(); ++i) {
      const octopus::MeshStats s = octopus::ComputeMeshStats(meshes[i]);
      t.AddRow({names[i],
                Table::Num(static_cast<double>(s.memory_bytes) / 1e6, 1),
                Table::Count(s.num_tetrahedra), Table::Count(s.num_vertices),
                Table::Num(s.mesh_degree, 2),
                Table::Num(s.surface_to_volume, 3),
                Table::Num(paper_sv[i], 2)});
    }
    t.Print();
    std::printf("\n");
  }

  // ---- Fig. 9(a,b): approach comparison + phase breakdown ----
  {
    Table a("Fig. 9(a) — Query response time on convex meshes [sec]");
    a.SetHeader({"Dataset", "OCTOPUS-CON", "OCTOPUS", "LinearScan",
                 "CON speedup", "OCTOPUS speedup"});
    Table b("Fig. 9(b) — Phase time breakdown [sec]");
    b.SetHeader({"Dataset", "Approach", "Surface Probe", "Directed Walk",
                 "Crawling"});
    for (size_t i = 0; i < meshes.size(); ++i) {
      const TetraMesh& mesh = meshes[i];
      const bench::StepWorkload workload = bench::MakeStepWorkload(
          mesh, steps, 15, 15, 0.001, 0.001, 0x900 + i);
      const bench::DeformerFactory deformer = QuakeDeformer();

      octopus::OctopusCon con;
      octopus::Octopus octo(octopus::OctopusOptions{.route_to_scan = false});
      octopus::LinearScan scan;
      const double con_s =
          bench::RunApproach(&con, mesh, deformer, workload).TotalSeconds();
      const double octo_s =
          bench::RunApproach(&octo, mesh, deformer, workload).TotalSeconds();
      const double scan_s =
          bench::RunApproach(&scan, mesh, deformer, workload).TotalSeconds();
      a.AddRow({names[i], Table::Num(con_s, 3), Table::Num(octo_s, 3),
                Table::Num(scan_s, 3), Table::Num(scan_s / con_s, 1) + "x",
                Table::Num(scan_s / octo_s, 1) + "x"});

      const octopus::PhaseStats& os = octo.stats();
      b.AddRow({names[i], "OCTOPUS", Table::Num(os.probe_nanos * 1e-9, 3),
                Table::Num(os.walk_nanos * 1e-9, 3),
                Table::Num(os.crawl_nanos * 1e-9, 3)});
      const octopus::PhaseStats& cs = con.stats();
      b.AddRow({names[i], "OCTOPUS-CON", "0 (skipped)",
                Table::Num(cs.walk_nanos * 1e-9, 3),
                Table::Num(cs.crawl_nanos * 1e-9, 3)});
    }
    a.Print();
    std::printf("Expected shape: OCTOPUS-CON fastest (paper: 15.5x on both "
                "datasets, insensitive to S:V);\nOCTOPUS speedup higher on "
                "SF1 than SF2 (smaller S:V -> cheaper probe).\n\n");
    b.Print();
    std::printf("Expected shape: crawling time ~equal for both approaches; "
                "OCTOPUS-CON eliminates the surface probe\n(paper Fig. "
                "9(b)).\n\n");
  }

  // ---- Fig. 9(c,d): grid resolution sweep (SF1) ----
  {
    Table c("Fig. 9(c,d) — Grid resolution trade-off (dataset SF1)");
    c.SetHeader({"Grid [# cells]", "Directed walk [# vertices visited]",
                 "Walk time [s]", "Grid memory [MB]"});
    const TetraMesh& mesh = meshes[1];
    const bench::StepWorkload workload =
        bench::MakeStepWorkload(mesh, steps, 15, 15, 0.001, 0.001, 0x9C0);
    for (const int res : {2, 6, 10, 14, 18}) {  // 8..5832 cells, as paper
      octopus::OctopusCon con(
          octopus::OctopusConOptions{.grid_resolution = res});
      bench::RunApproach(&con, mesh, QuakeDeformer(), workload);
      c.AddRow({Table::Count(static_cast<uint64_t>(res) * res * res),
                Table::Count(con.stats().walk_vertices),
                Table::Num(con.stats().walk_nanos * 1e-9, 3),
                Table::Num(con.grid().FootprintBytes() / 1e6, 3)});
    }
    c.Print();
    std::printf("Expected shape: vertices visited during the walk drop "
                "sharply with grid resolution while grid\nmemory grows "
                "(paper Fig. 9(c,d)); even 8 cells beat no grid by a large "
                "factor.\n");
  }
  return 0;
}
