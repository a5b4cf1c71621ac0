// Copyright 2026 The OCTOPUS Reproduction Authors
// Loopback benchmark of the network query service: an in-process server
// on an ephemeral 127.0.0.1 port, driven by concurrent blocking clients
// replaying the fig6-style monitoring workload. Reports throughput,
// request latency percentiles (from the server's histogram) and the
// cross-client coalesce factor, and verifies loopback parity against
// the in-process engine — counters and result sets, not wall-clock
// multipliers, so the numbers are meaningful on the 1-core CI runner
// too. Emits BENCH_server.json.
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "client/remote_client.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "octopus/query_executor.h"
#include "server/versioned_backend.h"
#include "server/server.h"
#include "sim/workload.h"
#include "storage/snapshot.h"

namespace {

using namespace octopus;

struct BenchConfig {
  std::string name;
  int clients = 1;
  int requests_per_client = 32;
  int queries_per_request = 16;
  bool paged = false;
  /// Flight-recorder ring slots; 0 = tracing disabled. The throughput
  /// configs run with tracing OFF so their numbers stay comparable to
  /// pre-observability baselines; the `_traced` config prices the ring.
  size_t trace_ring = 0;
  /// Event-journal ring slots; 0 = journal disabled. Priced together
  /// with tracing in the `_traced` config and the overhead ratio, so
  /// check_perf_smoke.py's 1.05x bound covers both observability paths.
  size_t journal_slots = 0;
  /// Epoll threads serving connections (sessions sharded by fd);
  /// 1 reproduces the old single-loop front end.
  int io_threads = 1;
};

/// CPU time of `clock` (a process or thread CPU clock).
int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct BenchOutcome {
  double wall_seconds = 0.0;
  /// CPU time of the server's own threads (I/O, scheduler, serializer,
  /// engine) over the timed region: the process's CPU time minus the
  /// client threads' and the driving thread's.
  double server_cpu_seconds = 0.0;
  server::ServerMetrics metrics;
  uint64_t trace_records = 0;
  uint64_t journal_events = 0;
  bool parity_ok = true;
  /// Per-client fairness: slowest client's wall over the fastest's.
  /// fd-sharded I/O threads must not starve some connections — a ratio
  /// far above ~2 on idle hardware means one shard sat unserved.
  double fairness = 1.0;
};

/// Client 0's workload and its in-process results. The query sequence
/// is seed-deterministic, so one reference serves every run of a
/// workload shape; it is computed once, outside every timed region.
struct ClientReference {
  std::vector<std::vector<AABB>> queries;
  std::vector<engine::QueryBatchResult> expected;
};

ClientReference MakeClientReference(const TetraMesh& mesh,
                                    const Octopus& reference,
                                    int requests, int queries_per_request) {
  engine::QueryEngine reference_engine;
  ClientReference client0;
  client0.expected.resize(static_cast<size_t>(requests));
  QueryGenerator gen(mesh);
  Rng rng(0xBE7C);
  for (int r = 0; r < requests; ++r) {
    client0.queries.push_back(
        gen.MakeQueries(&rng, queries_per_request, 0.0011, 0.0018));
    reference_engine.Execute(reference, mesh, client0.queries.back(),
                             &client0.expected[r]);
  }
  return client0;
}

/// Drives one config against a fresh server; returns the server's
/// post-run metrics plus a client-side parity verdict against `client0`
/// (the config's workload shape).
BenchOutcome RunConfig(const BenchConfig& config, const TetraMesh& mesh,
                       const std::string& snapshot_path,
                       const ClientReference& client0) {
  std::unique_ptr<server::VersionedBackend> backend;
  if (config.paged) {
    auto opened = server::VersionedBackend::OpenSnapshot(
        snapshot_path, /*pool_bytes=*/256 * 4096, /*threads=*/1);
    if (!opened.ok()) {
      std::fprintf(stderr, "open snapshot: %s\n",
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    backend = opened.MoveValue();
  } else {
    backend = server::VersionedBackend::FromMesh(mesh, /*threads=*/1);
  }

  server::ServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  options.trace_ring_slots = config.trace_ring;
  options.io_threads = config.io_threads;
  // Declared before `srv` (journal must outlive the server using it).
  obs::EventJournal journal(config.journal_slots);
  if (journal.enabled()) options.journal = &journal;
  server::QueryServer srv(std::move(backend), options);
  const Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  std::thread server_thread([&srv] { (void)srv.Run(); });

  BenchOutcome outcome;
  std::vector<std::thread> clients;
  // char, not bool: vector<bool> is bit-packed and concurrent writes
  // from client threads would race on shared bytes.
  std::vector<char> client_ok(static_cast<size_t>(config.clients), 1);
  std::vector<double> client_wall(static_cast<size_t>(config.clients),
                                  0.0);
  auto run_client = [&](int c) {
    Timer client_timer;
    auto connected =
        client::RemoteClient::Connect("127.0.0.1", srv.port());
    if (!connected.ok()) {
      client_ok[c] = 0;
      return;
    }
    QueryGenerator gen(mesh);
    Rng rng(0xBE7C + static_cast<uint64_t>(c));
    for (int r = 0; r < config.requests_per_client; ++r) {
      const std::vector<AABB> queries =
          c == 0 ? client0.queries[r]
                 : gen.MakeQueries(&rng, config.queries_per_request,
                                   0.0011, 0.0018);
      auto result = connected.Value()->ExecuteBatch(queries);
      if (!result.ok()) {
        client_ok[c] = 0;
        return;
      }
      if (c == 0) {
        // Loopback parity against the precomputed in-process results.
        for (size_t q = 0; q < queries.size(); ++q) {
          if (result.Value().results.per_query[q] !=
              client0.expected[r].per_query[q]) {
            client_ok[c] = 0;
            return;
          }
        }
      }
    }
    client_wall[c] = client_timer.ElapsedSeconds();
  };
  std::vector<int64_t> client_cpu(static_cast<size_t>(config.clients), 0);
  const int64_t process_cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  const int64_t main_cpu = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
  Timer wall;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      run_client(c);
      client_cpu[c] = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
    });
  }
  for (auto& t : clients) t.join();
  outcome.wall_seconds = wall.ElapsedSeconds();
  int64_t server_cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - process_cpu -
                       (CpuNanos(CLOCK_THREAD_CPUTIME_ID) - main_cpu);
  for (const int64_t nanos : client_cpu) server_cpu -= nanos;
  outcome.server_cpu_seconds = static_cast<double>(server_cpu) / 1e9;

  srv.Stop();
  server_thread.join();
  outcome.metrics = srv.MetricsSnapshot();
  outcome.trace_records = srv.recorder().total_recorded();
  outcome.journal_events = journal.total_emitted();
  for (const char ok : client_ok) outcome.parity_ok &= (ok != 0);
  double fastest = 0.0;
  double slowest = 0.0;
  for (const double seconds : client_wall) {
    if (seconds <= 0.0) continue;  // failed client; parity flags it
    if (fastest == 0.0 || seconds < fastest) fastest = seconds;
    if (seconds > slowest) slowest = seconds;
  }
  if (fastest > 0.0) outcome.fairness = slowest / fastest;
  return outcome;
}

}  // namespace

int main() {
  namespace bench = octopus::bench;
  const double scale = bench::ScaleFromEnv();

  auto mesh_result = MakeNeuroMesh(0, 0.5 * scale);
  if (!mesh_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 mesh_result.status().ToString().c_str());
    return 1;
  }
  const TetraMesh& mesh = mesh_result.Value();
  std::printf("OCTOPUS network query service — loopback bench (%zu "
              "vertices)\n\n",
              mesh.num_vertices());

  const std::string snapshot_path = "bench_server_tmp.oct2";
  const Status saved =
      SaveSnapshot(mesh, snapshot_path,
                   storage::SnapshotOptions{.page_bytes = 4096});
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
    return 1;
  }

  const std::vector<BenchConfig> configs = {
      {"loopback_1client", 1, 32, 16, false, 0},
      {"loopback_4clients", 4, 16, 16, false, 0},
      {"loopback_8clients", 8, 8, 16, false, 0},
      {"loopback_16clients_io4", 16, 4, 16, false, 0, 0, 4},
      {"loopback_32clients_io4", 32, 2, 16, false, 0, 0, 4},
      {"loopback_8clients_paged", 8, 8, 16, true, 0},
      {"loopback_8clients_paged_traced", 8, 8, 16, true, 1024, 1024},
  };

  // One in-process reference per workload shape (requests per client,
  // queries per request), shared by every run of that shape.
  Octopus reference;
  reference.Build(mesh);
  std::map<std::pair<int, int>, ClientReference> references;
  const auto reference_for =
      [&](const BenchConfig& config) -> const ClientReference& {
    const std::pair<int, int> shape{config.requests_per_client,
                                    config.queries_per_request};
    auto it = references.find(shape);
    if (it == references.end()) {
      it = references
               .emplace(shape, MakeClientReference(mesh, reference,
                                                   shape.first,
                                                   shape.second))
               .first;
    }
    return it->second;
  };

  Table table("bench_server — loopback service throughput");
  table.SetHeader({"config", "io", "queries", "queries/s", "p50 [us]",
                   "p95 [us]", "p99 [us]", "coalesce", "fair",
                   "parity"});
  bench::JsonWriter json(scale, /*steps=*/0);
  bool all_parity_ok = true;
  bool p99_bounded = true;
  for (const BenchConfig& config : configs) {
    const BenchOutcome outcome =
        RunConfig(config, mesh, snapshot_path, reference_for(config));
    const server::ServerMetrics& m = outcome.metrics;
    const double qps =
        outcome.wall_seconds > 0
            ? static_cast<double>(m.queries_executed) / outcome.wall_seconds
            : 0.0;
    const double p50 =
        static_cast<double>(m.request_latency.PercentileNanos(0.50)) / 1e3;
    const double p95 =
        static_cast<double>(m.request_latency.PercentileNanos(0.95)) / 1e3;
    const double p99 =
        static_cast<double>(m.request_latency.PercentileNanos(0.99)) / 1e3;
    all_parity_ok &= outcome.parity_ok;
    // Sanity bound, asserted on every machine: no request's latency can
    // exceed the whole run's wall clock.
    if (p99 > outcome.wall_seconds * 1e6) {
      std::fprintf(stderr, "%s: p99 %.0fus exceeds the run's %.0fus wall\n",
                   config.name.c_str(), p99,
                   outcome.wall_seconds * 1e6);
      p99_bounded = false;
    }

    table.AddRow({config.name, Table::Count(config.io_threads),
                  Table::Count(m.queries_executed),
                  Table::Num(qps, 0), Table::Num(p50, 0),
                  Table::Num(p95, 0), Table::Num(p99, 0),
                  Table::Num(m.CoalesceFactor(), 2),
                  Table::Num(outcome.fairness, 2),
                  outcome.parity_ok ? "ok" : "MISMATCH"});

    json.BeginObject();
    json.Field("name", config.name);
    json.Field("clients", static_cast<int64_t>(config.clients));
    json.Field("requests_per_client",
               static_cast<int64_t>(config.requests_per_client));
    json.Field("queries_per_request",
               static_cast<int64_t>(config.queries_per_request));
    json.Field("paged", static_cast<int64_t>(config.paged ? 1 : 0));
    json.Field("io_threads", static_cast<int64_t>(config.io_threads));
    json.Field("client_fairness", outcome.fairness);
    json.Field("queries_executed",
               static_cast<int64_t>(m.queries_executed));
    json.Field("batches_executed",
               static_cast<int64_t>(m.batches_executed));
    json.Field("coalesce_factor", m.CoalesceFactor());
    json.Field("wall_seconds", outcome.wall_seconds);
    json.Field("queries_per_sec", qps);
    json.Field("latency_p50_us", p50);
    json.Field("latency_p95_us", p95);
    json.Field("latency_p99_us", p99);
    json.Field("page_hits",
               static_cast<int64_t>(m.engine_total.page_io.page_hits));
    json.Field("page_misses",
               static_cast<int64_t>(m.engine_total.page_io.page_misses));
    json.Field("lease_hits",
               static_cast<int64_t>(m.engine_total.page_io.lease_hits));
    json.Field("pages_leased",
               static_cast<int64_t>(m.engine_total.page_io.pages_leased));
    json.Field(
        "pages_distinct",
        static_cast<int64_t>(m.engine_total.page_io.pages_distinct));
    // Logical surface-probe work (one probe per query) against the
    // positions physically read (one gather per shard per batch).
    json.Field("probed_vertices",
               static_cast<int64_t>(m.engine_total.probed_vertices));
    json.Field("probe_position_reads",
               static_cast<int64_t>(m.engine_total.probe_position_reads));
    // Per-phase engine timing: where the batch sweep's time went.
    json.Field("engine_probe_seconds",
               static_cast<double>(m.engine_total.probe_nanos) / 1e9);
    json.Field("engine_walk_seconds",
               static_cast<double>(m.engine_total.walk_nanos) / 1e9);
    json.Field("engine_crawl_seconds",
               static_cast<double>(m.engine_total.crawl_nanos) / 1e9);
    json.Field("engine_merge_seconds",
               static_cast<double>(m.engine_total.merge_nanos) / 1e9);
    json.Field("serialize_seconds",
               static_cast<double>(m.serialize_nanos_total) / 1e9);
    // Event-loop stall histogram: time the loop thread spent busy
    // between polls while sessions were connected.
    json.Field("stall_count", static_cast<int64_t>(m.loop_stall.count()));
    json.Field("stall_p50_us",
               static_cast<double>(m.loop_stall.PercentileNanos(0.50)) /
                   1e3);
    json.Field("stall_p95_us",
               static_cast<double>(m.loop_stall.PercentileNanos(0.95)) /
                   1e3);
    json.Field("stall_p99_us",
               static_cast<double>(m.loop_stall.PercentileNanos(0.99)) /
                   1e3);
    json.Field("stall_max_us",
               static_cast<double>(m.loop_stall.max_nanos()) / 1e3);
    json.Field("trace_ring", static_cast<int64_t>(config.trace_ring));
    json.Field("trace_records",
               static_cast<int64_t>(outcome.trace_records));
    json.Field("journal_slots",
               static_cast<int64_t>(config.journal_slots));
    json.Field("journal_events",
               static_cast<int64_t>(outcome.journal_events));
    json.Field("parity_ok",
               static_cast<int64_t>(outcome.parity_ok ? 1 : 0));
    json.EndObject();
  }

  // Tracing-overhead summary: the server threads' CPU time over a warm
  // paged single-client run with the ring (and journal) on, divided by
  // the same run with them off — the median over kOverheadPairs pairs,
  // whose order alternates so drift in machine speed cancels. CPU time,
  // not wall clock: on a 1-core runner wall clock is a scheduling
  // lottery, while the server's own CPU is what tracing costs.
  // check_perf_smoke.py holds the ratio to <= 1.05 (tracing must stay
  // effectively free). One pair's ratio spreads ±0.07 on a shared host
  // and drifts slowly from run to run, so a median of 11 pairs still
  // reached 1.09 on unchanged code; 31 pairs keep it within ±0.03.
  {
    constexpr int kOverheadPairs = 31;
    BenchConfig off_config{"overhead_paged_untraced", 1, 192, 16, true, 0};
    BenchConfig on_config = off_config;
    on_config.name = "overhead_paged_traced";
    on_config.trace_ring = 1024;
    on_config.journal_slots = 1024;
    std::vector<double> ratios;
    std::vector<double> off_cpu;
    std::vector<double> on_cpu;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      BenchOutcome off;
      BenchOutcome on;
      if (pair % 2 == 0) {
        off = RunConfig(off_config, mesh, snapshot_path,
                        reference_for(off_config));
        on = RunConfig(on_config, mesh, snapshot_path,
                        reference_for(on_config));
      } else {
        on = RunConfig(on_config, mesh, snapshot_path,
                        reference_for(on_config));
        off = RunConfig(off_config, mesh, snapshot_path,
                        reference_for(off_config));
      }
      all_parity_ok &= off.parity_ok && on.parity_ok;
      off_cpu.push_back(off.server_cpu_seconds);
      on_cpu.push_back(on.server_cpu_seconds);
      ratios.push_back(off.server_cpu_seconds > 0
                           ? on.server_cpu_seconds / off.server_cpu_seconds
                           : 0.0);
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double overhead = median(ratios);

    // I/O-thread scaling: the same 16-client in-memory load through one
    // epoll thread and through four. The ratio is the median over
    // kScalingPairs pairs of io1's wall time over io4's (both runs
    // execute the same queries, so that is io4's throughput over io1's),
    // whose order alternates so drift in machine speed cancels; one
    // wall-clock pair on a shared host is a coin flip. Recorded on
    // every machine; the monotonicity assertion (four threads must not
    // LOSE throughput) only fires with >= 4 hardware threads — on the
    // 1-core CI runner extra threads are pure scheduling overhead and
    // the ratio is noise, not signal.
    constexpr int kScalingPairs = 15;
    BenchConfig io1{"scaling_16clients_io1", 16, 32, 16, false, 0, 0, 1};
    BenchConfig io4 = io1;
    io4.name = "scaling_16clients_io4";
    io4.io_threads = 4;
    const auto qps = [](const BenchOutcome& out) {
      return out.wall_seconds > 0
                 ? static_cast<double>(out.metrics.queries_executed) /
                       out.wall_seconds
                 : 0.0;
    };
    std::vector<double> scaling_ratios;
    std::vector<double> io1_qps;
    std::vector<double> io4_qps;
    for (int pair = 0; pair < kScalingPairs; ++pair) {
      BenchOutcome out1;
      BenchOutcome out4;
      if (pair % 2 == 0) {
        out1 = RunConfig(io1, mesh, snapshot_path,
                        reference_for(io1));
        out4 = RunConfig(io4, mesh, snapshot_path,
                        reference_for(io4));
      } else {
        out4 = RunConfig(io4, mesh, snapshot_path,
                        reference_for(io4));
        out1 = RunConfig(io1, mesh, snapshot_path,
                        reference_for(io1));
      }
      all_parity_ok &= out1.parity_ok && out4.parity_ok;
      io1_qps.push_back(qps(out1));
      io4_qps.push_back(qps(out4));
      scaling_ratios.push_back(io1_qps.back() > 0
                                   ? io4_qps.back() / io1_qps.back()
                                   : 0.0);
    }
    const double qps_io1 = median(io1_qps);
    const double qps_io4 = median(io4_qps);
    const double scaling = median(scaling_ratios);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 4 && scaling < 0.9) {
      std::fprintf(stderr,
                   "io-thread scaling regressed: %.0f q/s with 4 "
                   "threads vs %.0f with 1 (median pair ratio %.2fx) on "
                   "%u cores\n",
                   qps_io4, qps_io1, scaling, hw);
      p99_bounded = false;  // folded into the failing exit code
    }

    json.BeginObject();
    json.Field("name", std::string("server_summary"));
    json.Field("untraced_server_cpu_seconds", median(off_cpu));
    json.Field("traced_server_cpu_seconds", median(on_cpu));
    json.Field("tracing_overhead_pairs", static_cast<int64_t>(ratios.size()));
    json.Field("tracing_overhead", overhead);
    json.Field("hw_concurrency", static_cast<int64_t>(hw));
    json.Field("scaling_pairs", static_cast<int64_t>(kScalingPairs));
    json.Field("scaling_qps_io1", qps_io1);
    json.Field("scaling_qps_io4", qps_io4);
    json.Field("io_thread_scaling", scaling);
    json.EndObject();
    std::printf("\nTracing overhead (warm paged, server CPU, median of "
                "%d pairs): %.3fx (%.4fs traced / %.4fs untraced)\n",
                kOverheadPairs, overhead, median(on_cpu), median(off_cpu));
    std::printf("I/O-thread scaling (16 clients, 4 vs 1 threads, median of "
                "%d pairs): %.2fx on %u hardware threads%s\n",
                kScalingPairs, scaling, hw,
                hw >= 4 ? "" : " (not asserted below 4)");
  }
  table.Print();
  std::printf(
      "\nCoalesce factor = queries per engine batch; > %d means the "
      "scheduler folded requests\nfrom different connections into one "
      "probe->walk->crawl sweep. Parity compares client-0\nresult sets "
      "against the in-process engine, bit for bit.\n",
      16);

  std::remove(snapshot_path.c_str());
  if (!json.WriteTo("BENCH_server.json")) {
    std::fprintf(stderr, "failed to write BENCH_server.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_server.json (%zu records)\n",
              json.num_objects());
  return all_parity_ok && p99_bounded ? 0 : 1;
}
