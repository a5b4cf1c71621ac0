// Copyright 2026 The OCTOPUS Reproduction Authors
// Reproduces paper Fig. 11 / Sec. VI-B: validation of the analytical cost
// model. CS and CR are calibrated empirically on the smallest dataset
// (paper protocol), then Eq. 3 / Eq. 4 predictions are compared with
// measured runtimes for selectivities 0.01%, 0.1% and 0.2% on all five
// datasets. Also prints the Eq. 6 break-even selectivity.
// The OCTOPUS column is the paper's pure OCTOPUS (`route_to_scan` off:
// no Eq. 6 routing); the LinearScan column times the batch-tiled scan
// kernel (index/tiled_scan.h), which skips vertex blocks whose bounding
// box misses a box, so it runs faster than the paper's plain scan.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "index/linear_scan.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_stats.h"
#include "octopus/cost_model.h"
#include "octopus/query_executor.h"

namespace {
using octopus::Table;
using octopus::TetraMesh;
namespace bench = octopus::bench;
}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(60);
  std::printf("OCTOPUS reproduction — Fig. 11: analytical model validation "
              "(scale %.3g, %d steps, 15 q/step)\n\n",
              scale, steps);

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

  // The paper calibrates on the smallest dataset; all its datasets are
  // DRAM-resident, so the constants transfer. At laptop scale the small
  // meshes sit in cache and their constants do NOT transfer upward, so we
  // calibrate on the largest dataset instead (see DESIGN.md 4b).
  const octopus::CostConstants constants =
      octopus::CalibrateCostConstants(levels.back(), /*repetitions=*/5);
  std::printf("calibrated constants: CS = %.3g s/vertex, CP = %.3g "
              "s/surface-vertex, CR = %.3g s/edge\n(CR/CS = %.2f; paper: CS "
              "6.6e-9, CR 2.7e-8, ratio ~4; CP is our gather-cost "
              "refinement, see DESIGN.md)\n",
              constants.cs_seconds, constants.cp_seconds,
              constants.cr_seconds,
              constants.cr_seconds / constants.cs_seconds);
  // The planner's committed kCounterUnitConstants (octopus/cost_model.h)
  // are these ratios from one run.
  std::printf("counter-unit constants: CP/CS = %.3f, CR/CS = %.3f "
              "(committed: %.3f, %.3f)\n\n",
              constants.cp_seconds / constants.cs_seconds,
              constants.cr_seconds / constants.cs_seconds,
              octopus::kCounterUnitConstants.cp_seconds,
              octopus::kCounterUnitConstants.cr_seconds);

  Table t("Fig. 11 — Measured vs predicted query response time [sec]");
  t.SetHeader({"Dataset [#verts]", "Selectivity [%]", "LinearScan measured",
               "LinearScan model", "OCTOPUS measured", "OCTOPUS model",
               "OCTOPUS model error [%]"});

  double worst_error = 0.0;
  for (TetraMesh& mesh : levels) {
    const octopus::CostModel model = octopus::CostModel::FromMesh(
        mesh, constants);
    for (const double sel_pct : {0.01, 0.1, 0.2}) {
      const double sel = sel_pct / 100.0;
      const bench::StepWorkload workload =
          bench::MakeStepWorkload(mesh, steps, 15, 15, sel, sel, 0xB00);
      const size_t queries = workload.TotalQueries();

      octopus::Octopus octo(octopus::OctopusOptions{.route_to_scan = false});
      octopus::LinearScan scan;
      const bench::DeformerFactory deformer =
          bench::NeuroDeformerFactory(mesh);
      const double octo_measured =
          bench::RunApproach(&octo, mesh, deformer, workload).TotalSeconds();
      const double scan_measured =
          bench::RunApproach(&scan, mesh, deformer, workload).TotalSeconds();

      const double octo_model =
          queries * model.OctopusSeconds(mesh.num_vertices(), sel);
      const double scan_model =
          queries * model.LinearScanSeconds(mesh.num_vertices());
      const double error =
          100.0 * std::abs(octo_model - octo_measured) / octo_measured;
      worst_error = std::max(worst_error, error);
      t.AddRow({Table::Count(mesh.num_vertices()), Table::Num(sel_pct, 2),
                Table::Num(scan_measured, 3), Table::Num(scan_model, 3),
                Table::Num(octo_measured, 3), Table::Num(octo_model, 3),
                Table::Num(error, 1)});
    }
  }
  t.Print();

  const octopus::CostModel largest_model =
      octopus::CostModel::FromMesh(levels.back(), constants);
  std::printf(
      "\nEq. 6 break-even selectivity for the largest dataset: %.2f%% — the "
      "linear scan only wins above it\n(paper reports 1.61%% for S=0.03; "
      "ours differs with the scaled S:V ratio).\n"
      "Worst OCTOPUS model error observed: %.1f%% (paper: ~2%% on dedicated "
      "hardware; noisy shared machines drift more).\n",
      100.0 * largest_model.BreakEvenSelectivity(), worst_error);
  return 0;
}
