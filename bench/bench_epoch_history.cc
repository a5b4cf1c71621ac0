// Copyright 2026 The OCTOPUS Reproduction Authors
// Epoch-history benchmark: what does bounded, spillable history cost?
// Steps an epoch-versioned backend K >> W epochs with a retention
// window of W, pinning an early epoch, and prices the three sides of
// the trade per step: publish latency (delta build + spill write),
// resident overlay memory (must stay O(W), not O(K)), and the query
// split — current-epoch latency (hot path, must not regress) vs the
// pinned epoch's reload latency and sidecar page I/O (the cost of a
// repeatable read). The pinned epoch's results are parity-checked at
// every step against the answer captured when it was current. Runs
// in-memory and paged; emits BENCH_epoch.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "server/versioned_backend.h"
#include "sim/deformer_spec.h"
#include "sim/workload.h"
#include "storage/snapshot.h"

namespace {

using namespace octopus;

struct StepRecord {
  uint32_t step = 0;
  double publish_seconds = 0.0;
  double current_query_seconds = 0.0;
  double pinned_query_seconds = 0.0;
  uint64_t pinned_page_accesses = 0;
  uint64_t resident_bytes = 0;
  uint64_t spill_bytes_total = 0;
  uint64_t spilled_epochs = 0;
  bool parity_ok = true;
};

}  // namespace

int main() {
  namespace bench = octopus::bench;
  const double scale = bench::ScaleFromEnv();
  const int steps = bench::StepsFromEnv(24);
  constexpr int kQueriesPerStep = 32;
  constexpr size_t kWindow = 4;

  auto mesh_result = MakeNeuroMesh(0, 0.4 * scale);
  if (!mesh_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 mesh_result.status().ToString().c_str());
    return 1;
  }
  const TetraMesh& mesh = mesh_result.Value();
  std::printf("OCTOPUS epoch history — %zu vertices, %d steps, window "
              "%zu, %d queries/step\n\n",
              mesh.num_vertices(), steps, kWindow, kQueriesPerStep);

  DeformerSpec spec;
  spec.kind = DeformerKind::kPlasticity;
  spec.amplitude = 0.25f * EstimateMeanEdgeLength(mesh);
  spec.seed = 99;

  const std::string snapshot_path = "bench_epoch_tmp.oct2";
  const Status saved =
      SaveSnapshot(mesh, snapshot_path,
                   storage::SnapshotOptions{.page_bytes = 4096});
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
    return 1;
  }

  bench::JsonWriter json(scale, steps);
  Table table("bench_epoch_history — retention window vs spilled history");
  table.SetHeader({"backend", "step", "publish ms", "cur q ms",
                   "pinned q ms", "pinned pageIO", "resident MB",
                   "spill MB", "parity"});
  bool all_parity_ok = true;

  for (const bool paged : {false, true}) {
    std::unique_ptr<server::VersionedBackend> backend;
    if (paged) {
      auto opened = server::VersionedBackend::OpenSnapshot(
          snapshot_path, /*pool_bytes=*/256 * 4096, /*threads=*/1);
      if (!opened.ok()) {
        std::fprintf(stderr, "open snapshot: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      backend = opened.MoveValue();
    } else {
      backend = server::VersionedBackend::FromMesh(mesh, /*threads=*/1);
    }
    server::EpochRetentionOptions retention;
    retention.retention_epochs = kWindow;
    retention.history_epochs = static_cast<size_t>(steps) + 8;
    retention.spill_path = std::string("bench_epoch_tmp_") +
                           (paged ? "p" : "m") + ".oct2d";
    Status st = backend->ConfigureRetention(retention);
    if (st.ok()) st = backend->BindDeformer(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      return 1;
    }

    QueryGenerator gen(mesh);
    Rng rng(0xE90C);
    const std::vector<AABB> queries =
        gen.MakeQueries(&rng, kQueriesPerStep, 0.0011, 0.0018);

    // Pin epoch 2 (step 1; ids start at 1) and capture its live
    // answer: the repeatable-read baseline every later step must
    // reproduce from the sidecar.
    backend->AdvanceStep();
    auto pinned = backend->PinEpoch(0);
    if (!pinned.ok() || pinned.Value().epoch != 2) {
      std::fprintf(stderr, "pin failed\n");
      return 1;
    }
    engine::QueryBatchResult baseline;
    PhaseStats baseline_stats;
    backend->Execute(queries, &baseline, &baseline_stats);

    std::vector<StepRecord> records;
    engine::QueryBatchResult out;
    for (int step = 2; step <= steps; ++step) {
      StepRecord record;
      record.step = static_cast<uint32_t>(step);

      Timer publish;
      backend->AdvanceStep();
      record.publish_seconds = publish.ElapsedSeconds();

      PhaseStats current_stats;
      Timer current;
      backend->Execute(queries, &out, &current_stats);
      record.current_query_seconds = current.ElapsedSeconds();
      record.parity_ok =
          out.epoch.step == static_cast<uint32_t>(step);

      PhaseStats pinned_stats;
      Timer pinned_timer;
      const Status replay =
          backend->ExecuteAt(2, queries, &out, &pinned_stats);
      record.pinned_query_seconds = pinned_timer.ElapsedSeconds();
      record.pinned_page_accesses = pinned_stats.page_io.PageAccesses();
      record.parity_ok &= replay.ok();
      for (size_t q = 0;
           replay.ok() && q < queries.size() && record.parity_ok; ++q) {
        record.parity_ok = out.per_query[q] == baseline.per_query[q];
      }

      const server::EpochStore* store = backend->epoch_store();
      record.resident_bytes = store->resident_bytes();
      record.spill_bytes_total = store->spill_bytes_written();
      record.spilled_epochs = store->spilled_epochs();
      all_parity_ok &= record.parity_ok;
      records.push_back(record);
    }

    const char* name = paged ? "paged" : "in-memory";
    for (const StepRecord& r : records) {
      if (r.step == 2 || r.step == static_cast<uint32_t>(steps) ||
          r.step == static_cast<uint32_t>(steps) / 2) {
        table.AddRow({name, Table::Count(r.step),
                      Table::Num(r.publish_seconds * 1e3, 2),
                      Table::Num(r.current_query_seconds * 1e3, 2),
                      Table::Num(r.pinned_query_seconds * 1e3, 2),
                      Table::Count(r.pinned_page_accesses),
                      Table::Num(r.resident_bytes / (1024.0 * 1024.0), 2),
                      Table::Num(r.spill_bytes_total / (1024.0 * 1024.0),
                                 2),
                      r.parity_ok ? "ok" : "MISMATCH"});
      }
      json.BeginObject();
      json.Field("name", std::string("epoch_history_") + name);
      json.Field("paged", static_cast<int64_t>(paged ? 1 : 0));
      json.Field("scale", scale);
      json.Field("step", static_cast<int64_t>(r.step));
      json.Field("retention_epochs", static_cast<int64_t>(kWindow));
      json.Field("queries_per_step",
                 static_cast<int64_t>(kQueriesPerStep));
      json.Field("publish_seconds", r.publish_seconds);
      json.Field("current_query_seconds", r.current_query_seconds);
      json.Field("pinned_query_seconds", r.pinned_query_seconds);
      json.Field("pinned_page_accesses",
                 static_cast<int64_t>(r.pinned_page_accesses));
      json.Field("resident_overlay_bytes",
                 static_cast<int64_t>(r.resident_bytes));
      json.Field("spill_bytes_total",
                 static_cast<int64_t>(r.spill_bytes_total));
      json.Field("spilled_epochs",
                 static_cast<int64_t>(r.spilled_epochs));
      json.Field("parity_ok",
                 static_cast<int64_t>(r.parity_ok ? 1 : 0));
      json.EndObject();
    }
  }

  table.Print();
  std::printf(
      "\nBounded history: resident overlay memory plateaus at the "
      "retention window while\nspill bytes grow with K — the pinned "
      "epoch stays bit-identical to its live answer,\npaid for in "
      "sidecar page I/O (pinned pageIO) instead of RSS. The hot path "
      "(cur q)\nnever touches the sidecar.\n");

  std::remove(snapshot_path.c_str());
  if (!json.WriteTo("BENCH_epoch.json")) {
    std::fprintf(stderr, "failed to write BENCH_epoch.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_epoch.json (%zu records)\n",
              json.num_objects());
  return all_parity_ok ? 0 : 1;
}
