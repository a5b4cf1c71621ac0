// Copyright 2026 The OCTOPUS Reproduction Authors
// Reproduces paper Figs. 5 and 6: the four neuroscience monitoring
// micro-benchmarks (A: structural validation, B: mesh quality, C/D:
// visualization) executed on the most detailed neuroscience mesh for 60
// simulated time steps, comparing OCTOPUS, LinearScan, throwaway OCTREE,
// LUR-Tree and QU-Trade on
//   (a) total query response time (incl. index rebuild/maintenance), and
//   (b) memory footprint.
// The OCTOPUS column is the paper's pure OCTOPUS (`route_to_scan` off:
// no Eq. 6 routing); the LinearScan column times the batch-tiled scan
// kernel (index/tiled_scan.h), which skips vertex blocks whose bounding
// box misses a box, so it runs faster than the paper's plain scan.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_stats.h"
#include "octopus/cost_model.h"
#include "sim/workload.h"

int main() {
  using octopus::Table;
  namespace bench = octopus::bench;

  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(60);
  const int threads = bench::ThreadsFromEnv(1);
  std::printf(
      "OCTOPUS reproduction — Figs. 5 & 6 (scale %.3g, %d steps, "
      "%d query threads)\n\n",
      scale, steps, threads);
  octopus::engine::QueryEngine query_engine(
      octopus::engine::QueryEngineOptions{.threads = threads});

  // --- Fig. 5: the benchmark definitions ---
  const auto specs = octopus::NeuroscienceBenchmarks();
  {
    Table t("Fig. 5 — Neuroscience Benchmarks");
    t.SetHeader({"Micro-benchmark", "Queries/step [#]", "Selectivity [%]"});
    for (const auto& s : specs) {
      const std::string queries =
          s.queries_per_step_min == s.queries_per_step_max
              ? std::to_string(s.queries_per_step_min)
              : std::to_string(s.queries_per_step_min) + " to " +
                    std::to_string(s.queries_per_step_max);
      t.AddRow({s.name, queries,
                Table::Num(s.selectivity_min * 100.0, 2) + " to " +
                    Table::Num(s.selectivity_max * 100.0, 2)});
    }
    t.Print();
    std::printf("\n");
  }

  // --- The most detailed neuroscience mesh (paper: 33 GB / 1.32 B tets).
  auto mesh_result =
      octopus::MakeNeuroMesh(octopus::kNumNeuroLevels - 1, scale);
  if (!mesh_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 mesh_result.status().ToString().c_str());
    return 1;
  }
  const octopus::TetraMesh& mesh = mesh_result.Value();
  std::printf("dataset: %s vertices, %s tetrahedra\n\n",
              Table::Count(mesh.num_vertices()).c_str(),
              Table::Count(mesh.num_tetrahedra()).c_str());
  const bench::DeformerFactory deformer = bench::NeuroDeformerFactory(mesh);

  Table time_table("Fig. 6(a) — Query Response Time [sec]");
  time_table.SetHeader({"Benchmark", "OCTOPUS", "LinearScan", "OCTREE",
                        "LUR-Tree", "QU-Trade", "OCTOPUS speedup vs scan"});
  Table mem_table("Fig. 6(b) — Memory Footprint [MB]");
  mem_table.SetHeader({"Benchmark", "OCTOPUS", "LinearScan", "OCTREE",
                       "LUR-Tree", "QU-Trade"});

  for (size_t b = 0; b < specs.size(); ++b) {
    const auto& spec = specs[b];
    const bench::StepWorkload workload = bench::MakeStepWorkload(
        mesh, steps, spec.queries_per_step_min, spec.queries_per_step_max,
        spec.selectivity_min, spec.selectivity_max,
        /*seed=*/0xF16'0000 + b);

    std::vector<std::string> time_row = {spec.name};
    std::vector<std::string> mem_row = {spec.name};
    double octopus_s = 0.0;
    double scan_s = 0.0;
    for (auto& index : bench::MakeAllApproaches()) {
      const bench::RunResult r = bench::RunApproach(
          index.get(), mesh, deformer, workload, &query_engine);
      time_row.push_back(Table::Num(r.TotalSeconds(), 2));
      mem_row.push_back(Table::Num(r.footprint_bytes / 1e6, 2));
      if (index->Name() == "OCTOPUS") octopus_s = r.TotalSeconds();
      if (index->Name() == "LinearScan") scan_s = r.TotalSeconds();
      std::fprintf(stderr, "  [%s] %-10s total=%.3fs (maint %.3fs, query "
                           "%.3fs) results=%zu\n",
                   spec.name.c_str(), index->Name().c_str(),
                   r.TotalSeconds(), r.maintenance_seconds, r.query_seconds,
                   r.total_results);
    }
    time_row.push_back(Table::Num(scan_s / octopus_s, 1) + "x");
    time_table.AddRow(time_row);
    mem_table.AddRow(mem_row);
  }
  time_table.Print();
  std::printf("\n");
  mem_table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 6): OCTOPUS fastest on every benchmark "
      "(paper speedups 7.3-9.2x at S=0.03;\nsmaller here because the scaled "
      "mesh has a larger surface:volume ratio), LinearScan beats all "
      "index-maintenance\napproaches, and OCTOPUS uses less memory than "
      "every approach except the zero-overhead LinearScan.\n\n");

  // --- Extrapolation to paper scale via the (Fig. 11-validated) model ---
  const octopus::CostConstants constants =
      octopus::CalibrateCostConstants(mesh, 2);
  const octopus::MeshStats stats = octopus::ComputeMeshStats(mesh);
  const octopus::CostModel here(stats.surface_to_volume, stats.mesh_degree,
                                constants);
  const octopus::CostModel paper_scale(0.03, 14.51, constants);
  Table extrapolation(
      "Model extrapolation: speedup vs LinearScan at paper-scale S = 0.03");
  extrapolation.SetHeader({"Selectivity [%]",
                           "model @ our S = " +
                               Table::Num(stats.surface_to_volume, 2),
                           "model @ paper S = 0.03", "paper measured"});
  extrapolation.AddRow({"0.12 (benchmark D)",
                        Table::Num(here.Speedup(0.0012), 1) + "x",
                        Table::Num(paper_scale.Speedup(0.0012), 1) + "x",
                        "7.3x"});
  extrapolation.AddRow({"0.13 (benchmark A mid)",
                        Table::Num(here.Speedup(0.0013), 1) + "x",
                        Table::Num(paper_scale.Speedup(0.0013), 1) + "x",
                        "9.2x"});
  extrapolation.Print();
  return 0;
}
