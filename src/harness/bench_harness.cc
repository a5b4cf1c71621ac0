// Copyright 2026 The OCTOPUS Reproduction Authors
#include "harness/bench_harness.h"

#include <cstdlib>

#include "common/rng.h"
#include "common/timer.h"
#include "index/linear_scan.h"
#include "index/lur_tree.h"
#include "index/octree.h"
#include "index/qu_trade.h"
#include "octopus/query_executor.h"
#include "sim/plasticity_deformer.h"
#include "sim/simulation.h"
#include "sim/workload.h"

namespace octopus::bench {

double ScaleFromEnv() {
  const char* s = std::getenv("OCTOPUS_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0.0 ? v : 1.0;
}

int StepsFromEnv(int fallback) {
  const char* s = std::getenv("OCTOPUS_BENCH_STEPS");
  if (s == nullptr) return fallback;
  const int v = std::atoi(s);
  return v > 0 ? v : fallback;
}

int ThreadsFromEnv(int fallback) {
  const char* s = std::getenv("OCTOPUS_BENCH_THREADS");
  if (s == nullptr) return fallback;
  const int v = std::atoi(s);
  return v > 0 ? v : fallback;
}

StepWorkload MakeStepWorkload(const TetraMesh& mesh, int steps, int qmin,
                              int qmax, double sel_min, double sel_max,
                              uint64_t seed) {
  QueryGenerator gen(mesh);
  Rng rng(seed);
  StepWorkload workload;
  workload.per_step.resize(steps);
  for (auto& step_queries : workload.per_step) {
    const int count =
        qmin + static_cast<int>(rng.NextBelow(qmax - qmin + 1));
    step_queries = gen.MakeQueries(&rng, count, sel_min, sel_max);
  }
  return workload;
}

RunResult RunApproach(SpatialIndex* index, const TetraMesh& base_mesh,
                      const DeformerFactory& make_deformer,
                      const StepWorkload& workload,
                      engine::QueryEngine* engine) {
  TetraMesh mesh = base_mesh;  // private copy: deformed in place below
  std::unique_ptr<Deformer> deformer = make_deformer();

  engine::QueryEngine sequential_engine;
  if (engine == nullptr) engine = &sequential_engine;

  RunResult result;
  Timer build_timer;
  index->Build(mesh);
  result.build_seconds = build_timer.ElapsedSeconds();

  Simulation sim(&mesh, deformer.get());
  engine::QueryBatchResult results;  // slots recycled across steps
  for (const auto& step_queries : workload.per_step) {
    sim.Step();  // SIMULATE phase (not part of query response time)

    Timer maintenance_timer;
    index->BeforeQueries(mesh);
    result.maintenance_seconds += maintenance_timer.ElapsedSeconds();

    Timer query_timer;
    engine->Execute(*index, mesh, step_queries, &results);
    result.query_seconds += query_timer.ElapsedSeconds();
    result.total_results += results.TotalResults();
  }
  result.footprint_bytes = index->FootprintBytes();
  return result;
}

std::vector<std::unique_ptr<SpatialIndex>> MakeAllApproaches() {
  std::vector<std::unique_ptr<SpatialIndex>> v;
  // The paper's OCTOPUS: every box probed, walked and crawled.
  v.push_back(
      std::make_unique<Octopus>(OctopusOptions{.route_to_scan = false}));
  v.push_back(std::make_unique<LinearScan>());
  v.push_back(std::make_unique<ThrowawayOctree>());
  v.push_back(std::make_unique<LURTree>());
  v.push_back(std::make_unique<QUTrade>());
  return v;
}

DeformerFactory NeuroDeformerFactory(const TetraMesh& mesh) {
  const float amplitude = 0.3f * EstimateMeanEdgeLength(mesh);
  return [amplitude]() {
    return std::make_unique<PlasticityDeformer>(amplitude);
  };
}

}  // namespace octopus::bench
