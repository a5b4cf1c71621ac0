// Copyright 2026 The OCTOPUS Reproduction Authors
//
// octopus_cli — command-line utility around the OCTOPUS library.
//
//   octopus_cli generate <dataset> <out.mesh> [scale]
//       dataset: neuro0..neuro4 | sf1 | sf2 | horse | face | camel
//   octopus_cli info <mesh>
//       prints the Fig. 4-style characterization of a mesh file
//   octopus_cli query <mesh> <minx miny minz maxx maxy maxz>
//              [--paged --pool-bytes N]
//       runs one OCTOPUS range query and prints the result count +
//       phase breakdown; with --paged, <mesh> is an .oct2 snapshot
//       executed out of core through a byte-capped buffer pool
//   octopus_cli snapshot save <mesh> <out.oct2> [--page-bytes N]
//              [--layout original|hilbert]
//       converts an OCT1 mesh file into a paged OCT2 snapshot
//   octopus_cli snapshot info <file.oct2>
//       prints the snapshot header (pages, sections, layout)
//   octopus_cli export <mesh> <out.obj>
//       writes the mesh surface as a Wavefront OBJ
//   octopus_cli bench <mesh> [--threads N] [--queries N] [--sel F]
//       executes a batch of random range queries through the QueryEngine
//       and prints throughput + phase breakdown
//   octopus_cli serve <mesh|snapshot.oct2> [--port N] [--paged ...]
//              [--deform <kind> --step-every <ms>]
//       runs the OCTP network query service until SIGINT/SIGTERM;
//       with --deform the mesh advances epoch by epoch while serving
//   octopus_cli query --remote <host:port> <minx ... maxz>
//       executes the range query on a remote octopus_cli serve
//   octopus_cli step <host:port> [n]
//       advances a dynamic server n steps (default 1; 0 = just report
//       the current epoch)
//   octopus_cli trace dump <host:port> [--out FILE]
//              [--merge-client SPANLOG]
//       exports a serving instance's flight-recorder ring as Chrome
//       trace-event JSON (chrome://tracing, Perfetto, speedscope);
//       --merge-client folds a query --span-log file into one
//       two-process client+server trace
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/remote_client.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/version.h"
#include "engine/query_engine.h"
#include "mesh/export_obj.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "mesh/mesh_stats.h"
#include "obs/event_journal.h"
#include "obs/trace.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "server/server.h"
#include "sim/deformer_spec.h"
#include "sim/workload.h"

namespace {

using namespace octopus;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  octopus_cli generate <neuro0..neuro4|sf1|sf2|horse|face|camel> "
      "<out.mesh> [scale]\n"
      "  octopus_cli info <mesh>\n"
      "  octopus_cli query <mesh> <minx> <miny> <minz> <maxx> <maxy> "
      "<maxz> [--paged --pool-bytes N]\n"
      "      --paged          treat <mesh> as an .oct2 snapshot and "
      "execute out of core\n"
      "      --pool-bytes N   buffer-pool byte cap for --paged "
      "(default 4194304, min 2 pages)\n"
      "  octopus_cli snapshot save <mesh> <out.oct2> [--page-bytes N] "
      "[--layout original|hilbert]\n"
      "  octopus_cli snapshot info <file.oct2> [--json]\n"
      "  octopus_cli export <mesh> <out.obj>\n"
      "  octopus_cli bench <mesh> [--threads N] [--queries N] [--sel F]\n"
      "      --threads N      query-execution threads for the batch "
      "(default 1)\n"
      "      --queries N      batch size (default 256)\n"
      "      --sel F          query selectivity (default 0.001)\n"
      "  octopus_cli serve <mesh> [--port N] [--threads N] "
      "[--io-threads N] [--window-us N] [--max-batch N] [--max-pending N]\n"
      "              [--paged --pool-bytes N] [--deform "
      "<random|wave|plasticity>]\n"
      "              [--step-every MS] [--amplitude F] [--seed N] "
      "[--idle-timeout-s N]\n"
      "              [--retention-epochs N] [--retention-bytes N] "
      "[--history-epochs N] [--spill-path P]\n"
      "              [--metrics-port N] [--trace-ring N] "
      "[--slow-query-ms N]\n"
      "              [--journal N] [--journal-jsonl PATH|stderr] "
      "[--ready-lag-ms N]\n"
      "      runs the OCTP query service (port 0 = ephemeral, printed "
      "on stdout); with --paged,\n"
      "      --io-threads N serves connections from N epoll threads, "
      "sharded by fd (default\n"
      "      min(4, hardware threads); 1 = the single-loop front end); "
      "--threads N sizes the\n"
      "      engine's query pool;\n"
      "      <mesh> is an .oct2 snapshot served out of core. --deform "
      "binds a simulation\n"
      "      deformer (epoch-versioned serving); --step-every advances "
      "it every MS milliseconds\n"
      "      on a stepper thread, concurrently with queries. "
      "--amplitude 0 (default) derives a\n"
      "      safe bound from the mesh. --retention-epochs/-bytes cap "
      "the memory-resident epoch\n"
      "      window (>= 1 epoch); --history-epochs caps total queryable "
      "history; older epochs\n"
      "      spill to --spill-path (default <input>.<pid>.oct2d) and "
      "reload "
      "on demand.\n"
      "      --metrics-port N serves the introspection endpoints "
      "(/metrics, /healthz, /readyz,\n"
      "      /epochs, /journal) at http://<bind>:N (0 = ephemeral, "
      "printed on stdout);\n"
      "      --trace-ring N sizes the flight-recorder ring in records "
      "(default 1024, 0 = tracing\n"
      "      off); --slow-query-ms N logs requests slower than N ms as "
      "structured stderr lines\n"
      "      (0 = off); --journal N keeps the last N lifecycle events "
      "for /journal (0 = off);\n"
      "      --journal-jsonl tails every event to a file (or stderr); "
      "--ready-lag-ms N makes\n"
      "      /readyz answer 503 once no epoch published for N ms "
      "(0 = no lag check)\n"
      "  octopus_cli query --remote <host:port> <minx> <miny> <minz> "
      "<maxx> <maxy> <maxz>\n"
      "              [--epoch N] [--pin] [--span-log FILE]\n"
      "      --epoch N       execute against historical epoch N "
      "(0 = current); EPOCH_GONE if evicted\n"
      "      --pin           pin the target epoch first (released on "
      "disconnect) and print its id\n"
      "      --span-log FILE append the call's client-side span (JSONL) "
      "for trace dump --merge-client\n"
      "  octopus_cli step <host:port> [n]\n"
      "      advances a dynamic server n steps (default 1; 0 = report "
      "the current epoch)\n"
      "  octopus_cli trace dump <host:port> [--out FILE] "
      "[--merge-client SPANLOG]\n"
      "      exports the server's flight-recorder ring as Chrome "
      "trace-event JSON\n"
      "      (stdout by default; load in chrome://tracing, Perfetto or "
      "speedscope);\n"
      "      --merge-client folds a --span-log file into one two-process "
      "client+server trace\n"
      "  octopus_cli --version\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

/// Parses a positive byte count (pool or page size); false on garbage,
/// non-positive or implausibly large values.
bool ParseByteCount(const char* arg, size_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0' || value <= 0 ||
      value > (1ll << 40)) {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

Result<TetraMesh> GenerateByName(const std::string& name, double scale) {
  if (name.rfind("neuro", 0) == 0 && name.size() == 6) {
    return MakeNeuroMesh(name[5] - '0', scale);
  }
  if (name == "sf1") {
    return MakeEarthquakeMesh(EarthquakeResolution::kSF1, scale);
  }
  if (name == "sf2") {
    return MakeEarthquakeMesh(EarthquakeResolution::kSF2, scale);
  }
  if (name == "horse") {
    return MakeAnimationMesh(AnimationDataset::kHorseGallop, scale);
  }
  if (name == "face") {
    return MakeAnimationMesh(AnimationDataset::kFacialExpression, scale);
  }
  if (name == "camel") {
    return MakeAnimationMesh(AnimationDataset::kCamelCompress, scale);
  }
  return Status::InvalidArgument("unknown dataset: " + name);
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const double scale = argc > 4 ? std::atof(argv[4]) : 1.0;
  auto mesh = GenerateByName(argv[2], scale);
  if (!mesh.ok()) {
    std::fprintf(stderr, "%s\n", mesh.status().ToString().c_str());
    return 1;
  }
  const Status st = SaveMesh(mesh.Value(), argv[3]);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu vertices, %zu tetrahedra\n", argv[3],
              mesh.Value().num_vertices(), mesh.Value().num_tetrahedra());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto mesh = LoadMesh(argv[2]);
  if (!mesh.ok()) {
    std::fprintf(stderr, "%s\n", mesh.status().ToString().c_str());
    return 1;
  }
  const MeshStats s = ComputeMeshStats(mesh.Value());
  Table t(std::string("mesh info: ") + argv[2]);
  t.SetHeader({"metric", "value"});
  t.AddRow({"vertices", Table::Count(s.num_vertices)});
  t.AddRow({"tetrahedra", Table::Count(s.num_tetrahedra)});
  t.AddRow({"edges", Table::Count(s.num_edges)});
  t.AddRow({"surface vertices", Table::Count(s.num_surface_vertices)});
  t.AddRow({"mesh degree (M)", Table::Num(s.mesh_degree, 2)});
  t.AddRow({"surface:volume (S)", Table::Num(s.surface_to_volume, 4)});
  t.AddRow({"memory", Table::Megabytes(s.memory_bytes)});
  t.Print();
  return 0;
}

void PrintPhaseBreakdown(const PhaseStats& stats) {
  std::printf("phases: probe %.3f ms (%zu probed) | walk %.3f ms (%zu "
              "walks) | crawl %.3f ms (%zu edges)\n",
              stats.probe_nanos * 1e-6, stats.probed_vertices,
              stats.walk_nanos * 1e-6, stats.walk_invocations,
              stats.crawl_nanos * 1e-6, stats.crawl_edges);
}

/// Splits "host:port"; false on a missing/invalid port.
bool ParseHostPort(const std::string& arg, std::string* host,
                   uint16_t* port) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= arg.size()) {
    return false;
  }
  char* end = nullptr;
  const long value = std::strtol(arg.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || value < 1 || value > 65535) return false;
  *host = arg.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

/// Up-front `--pool-bytes` validation against the snapshot's page size:
/// the buffer pool must cover at least 2 pages, and a clear message here
/// beats an opaque failure deep inside the buffer manager.
Status ValidatePoolBytes(const std::string& snapshot_path,
                         size_t pool_bytes) {
  auto header = storage::ReadSnapshotHeader(snapshot_path);
  if (!header.ok()) return header.status();
  const size_t min_bytes = 2 * static_cast<size_t>(
                                   header.Value().page_bytes);
  if (pool_bytes < min_bytes) {
    return Status::InvalidArgument(
        "--pool-bytes " + std::to_string(pool_bytes) + " too small: " +
        snapshot_path + " has " +
        std::to_string(header.Value().page_bytes) +
        "-byte pages and the buffer pool must cover at least 2 pages "
        "(>= " +
        std::to_string(min_bytes) + " bytes)");
  }
  return Status::OK();
}

void PrintRemoteBatchInfo(const client::RemoteBatchResult& r) {
  PrintPhaseBreakdown(r.stats.ToPhaseStats());
  std::printf("served in a coalesced batch of %u queries from %u "
              "request(s) at epoch %llu (step %u)\n",
              r.stats.batch_queries, r.stats.batch_requests,
              static_cast<unsigned long long>(r.stats.epoch.epoch),
              r.stats.epoch.step);
  if (r.stats.page_hits + r.stats.page_misses > 0) {
    std::printf("page I/O: %llu hits, %llu misses, %llu evictions\n",
                static_cast<unsigned long long>(r.stats.page_hits),
                static_cast<unsigned long long>(r.stats.page_misses),
                static_cast<unsigned long long>(r.stats.page_evictions));
  }
}

int CmdQueryRemote(int argc, char** argv) {
  // octopus_cli query --remote <host:port> <6 box coords> [--epoch N]
  //             [--pin]
  if (argc < 10) return Usage();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(argv[3], &host, &port)) return Usage();
  const AABB box(Vec3(std::atof(argv[4]), std::atof(argv[5]),
                      std::atof(argv[6])),
                 Vec3(std::atof(argv[7]), std::atof(argv[8]),
                      std::atof(argv[9])));
  unsigned long long epoch = 0;
  bool pin = false;
  const char* span_log = nullptr;
  for (int i = 10; i < argc; ++i) {
    if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      char* end = nullptr;
      epoch = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return Usage();
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin = true;
    } else if (std::strcmp(argv[i], "--span-log") == 0 && i + 1 < argc) {
      span_log = argv[++i];
    } else {
      return Usage();
    }
  }
  auto connected = client::RemoteClient::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return 1;
  }
  client::RemoteClient& remote = *connected.Value();
  if (span_log != nullptr) remote.set_record_spans(true);
  const auto& info = remote.server_info();
  if (pin) {
    // Demonstrates the repeatable-read flow; a pin is per-session, so
    // it releases when this process disconnects. Long-lived monitoring
    // clients hold theirs across batches.
    auto pinned = remote.PinEpoch(epoch);
    if (!pinned.ok()) {
      std::fprintf(stderr, "%s\n", pinned.status().ToString().c_str());
      return 1;
    }
    epoch = pinned.Value().epoch;
    std::printf("pinned epoch %llu (step %u; released on disconnect)\n",
                static_cast<unsigned long long>(pinned.Value().epoch),
                pinned.Value().step);
  }
  auto result = remote.ExecuteBatch(std::span<const AABB>(&box, 1), epoch);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu vertices inside query box (remote %s backend, %llu "
              "vertices)\n",
              result.Value().results.per_query[0].size(),
              info.paged != 0 ? "out-of-core" : "in-memory",
              static_cast<unsigned long long>(info.num_vertices));
  PrintRemoteBatchInfo(result.Value());
  if (span_log != nullptr) {
    // Appended, not truncated: one growing JSONL file accumulates the
    // client half of `trace dump --merge-client` across invocations.
    std::FILE* f = std::fopen(span_log, "ab");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --span-log %s\n", span_log);
      return 1;
    }
    for (const obs::ClientCallSpan& span : remote.spans()) {
      const std::string line = obs::ClientCallSpanJson(span);
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "failed to write --span-log %s\n", span_log);
      return 1;
    }
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[2], "--remote") == 0) {
    return CmdQueryRemote(argc, argv);
  }
  if (argc < 9) return Usage();
  bool paged = false;
  size_t pool_bytes = 4u << 20;
  for (int i = 9; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paged") == 0) {
      paged = true;
    } else if (std::strcmp(argv[i], "--pool-bytes") == 0 && i + 1 < argc) {
      if (!ParseByteCount(argv[++i], &pool_bytes)) return Usage();
    } else {
      return Usage();
    }
  }
  const AABB box(Vec3(std::atof(argv[3]), std::atof(argv[4]),
                      std::atof(argv[5])),
                 Vec3(std::atof(argv[6]), std::atof(argv[7]),
                      std::atof(argv[8])));

  if (paged) {
    const Status valid = ValidatePoolBytes(argv[2], pool_bytes);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return 1;
    }
    PagedOctopus::Options options;
    options.pool.pool_bytes = pool_bytes;
    auto octo = PagedOctopus::Open(argv[2], options);
    if (!octo.ok()) {
      std::fprintf(stderr, "%s\n", octo.status().ToString().c_str());
      return 1;
    }
    std::vector<VertexId> result;
    octo.Value()->RangeQuery(box, &result);
    const PhaseStats& stats = octo.Value()->stats();
    std::printf("%zu vertices inside query box (out of core, %s layout)\n",
                result.size(),
                storage::LayoutName(octo.Value()->store().layout()));
    PrintPhaseBreakdown(stats);
    std::printf("page I/O: %zu hits, %zu misses, %zu evictions "
                "(pool cap %zu bytes, allocated %zu)\n",
                stats.page_io.page_hits, stats.page_io.page_misses,
                stats.page_io.page_evictions, pool_bytes,
                octo.Value()->store().buffer_manager()->AllocatedBytes());
    return 0;
  }

  auto mesh = LoadMesh(argv[2]);
  if (!mesh.ok()) {
    std::fprintf(stderr, "%s\n", mesh.status().ToString().c_str());
    return 1;
  }
  Octopus octo;
  octo.Build(mesh.Value());
  std::vector<VertexId> result;
  octo.RangeQuery(mesh.Value(), box, &result);
  std::printf("%zu vertices inside query box\n", result.size());
  PrintPhaseBreakdown(octo.stats());
  return 0;
}

int CmdSnapshot(int argc, char** argv) {
  if (argc < 4) return Usage();
  if (std::strcmp(argv[2], "info") == 0) {
    bool json = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else {
        return Usage();
      }
    }
    auto header = storage::ReadSnapshotHeader(argv[3]);
    if (!header.ok()) {
      std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
      return 1;
    }
    const storage::SnapshotHeader& h = header.Value();
    if (json) {
      // Machine-readable header dump: one flat JSON object, keys
      // stable. The path is the only caller-controlled string — escape
      // it so the output stays parseable JSON for any filename.
      std::string escaped_path;
      for (const char* p = argv[3]; *p != '\0'; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (c == '"' || c == '\\') {
          escaped_path += '\\';
          escaped_path += *p;
        } else if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          escaped_path += buf;
        } else {
          escaped_path += *p;
        }
      }
      std::printf(
          "{\"path\": \"%s\", \"layout\": \"%s\", \"page_bytes\": %u, "
          "\"num_pages\": %llu, \"file_bytes\": %llu, "
          "\"num_vertices\": %llu, \"num_adj_entries\": %llu, "
          "\"num_surface_vertices\": %llu, \"num_tets\": %llu}\n",
          escaped_path.c_str(),
          storage::LayoutName(
              static_cast<storage::SnapshotLayout>(h.layout)),
          h.page_bytes, static_cast<unsigned long long>(h.num_pages),
          static_cast<unsigned long long>(h.FileBytes()),
          static_cast<unsigned long long>(h.num_vertices),
          static_cast<unsigned long long>(h.num_adj_entries),
          static_cast<unsigned long long>(h.num_surface_vertices),
          static_cast<unsigned long long>(h.num_tets));
      return 0;
    }
    Table t(std::string("snapshot info: ") + argv[3]);
    t.SetHeader({"field", "value"});
    t.AddRow({"layout", storage::LayoutName(
                            static_cast<storage::SnapshotLayout>(
                                h.layout))});
    t.AddRow({"page bytes", Table::Count(h.page_bytes)});
    t.AddRow({"pages", Table::Count(h.num_pages)});
    t.AddRow({"file size", Table::Megabytes(h.FileBytes())});
    t.AddRow({"vertices", Table::Count(h.num_vertices)});
    t.AddRow({"adjacency entries", Table::Count(h.num_adj_entries)});
    t.AddRow({"surface vertices", Table::Count(h.num_surface_vertices)});
    t.AddRow({"tetrahedra (source)", Table::Count(h.num_tets)});
    t.Print();
    return 0;
  }
  if (std::strcmp(argv[2], "save") == 0) {
    if (argc < 5) return Usage();
    storage::SnapshotOptions options;
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--page-bytes") == 0 && i + 1 < argc) {
        if (!ParseByteCount(argv[++i], &options.page_bytes)) {
          return Usage();
        }
      } else if (std::strcmp(argv[i], "--layout") == 0 && i + 1 < argc) {
        const char* name = argv[++i];
        if (std::strcmp(name, "hilbert") == 0) {
          options.layout = storage::SnapshotLayout::kHilbert;
        } else if (std::strcmp(name, "original") == 0) {
          options.layout = storage::SnapshotLayout::kOriginal;
        } else {
          return Usage();
        }
      } else {
        return Usage();
      }
    }
    const Status st = ConvertMeshToSnapshot(argv[3], argv[4], options);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    auto header = storage::ReadSnapshotHeader(argv[4]);
    if (!header.ok()) {
      std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: %llu pages of %u bytes (%s layout, %llu "
                "vertices)\n",
                argv[4],
                static_cast<unsigned long long>(header.Value().num_pages),
                header.Value().page_bytes,
                storage::LayoutName(static_cast<storage::SnapshotLayout>(
                    header.Value().layout)),
                static_cast<unsigned long long>(
                    header.Value().num_vertices));
    return 0;
  }
  return Usage();
}

int CmdBench(int argc, char** argv) {
  if (argc < 3) return Usage();
  int threads = 1;
  int queries = 256;
  double selectivity = 0.001;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--sel") == 0 && i + 1 < argc) {
      selectivity = std::atof(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (threads < 1 || queries < 1) return Usage();

  auto mesh = LoadMesh(argv[2]);
  if (!mesh.ok()) {
    std::fprintf(stderr, "%s\n", mesh.status().ToString().c_str());
    return 1;
  }
  Octopus octo;
  Timer build_timer;
  octo.Build(mesh.Value());
  const double build_s = build_timer.ElapsedSeconds();

  QueryGenerator gen(mesh.Value());
  Rng rng(42);
  const engine::QueryBatch batch =
      gen.MakeBatch(&rng, queries, selectivity, selectivity);
  engine::QueryEngine eng(engine::QueryEngineOptions{.threads = threads});
  engine::QueryBatchResult results;

  Timer batch_timer;
  eng.Execute(octo, mesh.Value(), batch, &results);
  const double batch_s = batch_timer.ElapsedSeconds();

  const PhaseStats& stats = octo.stats();
  std::printf("%d queries (sel %.4f) on %d thread(s): %.3f ms total, "
              "%.1f queries/s, %zu results\n",
              queries, selectivity, threads, batch_s * 1e3,
              queries / batch_s, results.TotalResults());
  std::printf("build: %.3f s | phase counts: %zu probed, %zu walks, "
              "%zu crawl edges\n",
              build_s, stats.probed_vertices, stats.walk_invocations,
              stats.crawl_edges);
  return 0;
}

// Lock-free atomic: a plain pointer read from a signal handler is UB.
std::atomic<server::QueryServer*> g_server{nullptr};

void HandleStopSignal(int) {
  server::QueryServer* srv = g_server.load(std::memory_order_acquire);
  if (srv != nullptr) srv->Stop();  // one atomic store + one pipe write
}

/// Strict positive-int parse for serve's capacity knobs: trailing
/// garbage ("10k", "2.5") must be rejected, not silently truncated.
bool ParsePositiveInt(const char* arg, long max, long* out) {
  char* end = nullptr;
  const long value = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || value < 1 || value > max) {
    return false;
  }
  *out = value;
  return true;
}

int CmdServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  bool paged = false;
  size_t pool_bytes = 4u << 20;
  long threads = 1;
  DeformerSpec deform;
  long step_every_ms = 0;
  server::ServerOptions options;
  // Default: min(4, hardware threads) epoll I/O threads. One thread
  // reproduces the previous single-loop front end exactly.
  options.io_threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  server::EpochRetentionOptions retention;
  size_t journal_slots = 0;
  const char* journal_jsonl = nullptr;
  bool retention_flag_seen = false;
  retention.spill_path.clear();  // resolved to <input>.<pid>.oct2d below
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paged") == 0) {
      paged = true;
    } else if (std::strcmp(argv[i], "--pool-bytes") == 0 && i + 1 < argc) {
      if (!ParseByteCount(argv[++i], &pool_bytes)) return Usage();
    } else if (std::strcmp(argv[i], "--retention-epochs") == 0 &&
               i + 1 < argc) {
      long n = 0;
      if (!ParsePositiveInt(argv[++i], 1 << 20, &n)) {
        // Typed message, not a bare usage dump: "0" here silently
        // meaning "unbounded" (or worse, crashing later) is exactly the
        // class of bug this PR sweeps.
        std::fprintf(stderr,
                     "--retention-epochs must be at least 1 epoch "
                     "(got \"%s\")\n",
                     argv[i]);
        return 2;
      }
      retention.retention_epochs = static_cast<size_t>(n);
      retention_flag_seen = true;
    } else if (std::strcmp(argv[i], "--retention-bytes") == 0 &&
               i + 1 < argc) {
      size_t bytes = 0;
      if (!ParseByteCount(argv[++i], &bytes)) {
        std::fprintf(stderr,
                     "--retention-bytes must be a positive byte count "
                     "(got \"%s\")\n",
                     argv[i]);
        return 2;
      }
      retention.retention_bytes = bytes;
      retention_flag_seen = true;
    } else if (std::strcmp(argv[i], "--history-epochs") == 0 &&
               i + 1 < argc) {
      long n = 0;
      if (!ParsePositiveInt(argv[++i], 1 << 20, &n)) {
        std::fprintf(stderr,
                     "--history-epochs must be at least 1 epoch "
                     "(got \"%s\")\n",
                     argv[i]);
        return 2;
      }
      retention.history_epochs = static_cast<size_t>(n);
      retention_flag_seen = true;
    } else if (std::strcmp(argv[i], "--spill-path") == 0 && i + 1 < argc) {
      retention.spill_path = argv[++i];
      retention_flag_seen = true;
    } else if (std::strcmp(argv[i], "--deform") == 0 && i + 1 < argc) {
      if (!ParseDeformerKind(argv[++i], &deform.kind)) return Usage();
    } else if (std::strcmp(argv[i], "--step-every") == 0 && i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], 3'600'000, &step_every_ms)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--amplitude") == 0 && i + 1 < argc) {
      char* end = nullptr;
      deform.amplitude = std::strtof(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || deform.amplitude < 0.0f) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return Usage();
      deform.seed = seed;
    } else if (std::strcmp(argv[i], "--idle-timeout-s") == 0 &&
               i + 1 < argc) {
      // Strict parse allowing 0 ("disable the timeout"), so garbage
      // must not silently become it.
      char* end = nullptr;
      const long seconds = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || seconds < 0 ||
          seconds > 86'400) {
        return Usage();
      }
      options.idle_timeout_nanos = seconds * 1'000'000'000ll;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      // Strict parse: 0 means "ephemeral", so a garbage value must not
      // silently become 0 (atoi would).
      char* end = nullptr;
      const long port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || port < 0 || port > 65535) {
        return Usage();
      }
      options.port = static_cast<uint16_t>(port);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], 1024, &threads)) return Usage();
    } else if (std::strcmp(argv[i], "--io-threads") == 0 && i + 1 < argc) {
      long n = 0;
      if (!ParsePositiveInt(argv[++i], 64, &n)) {
        std::fprintf(stderr,
                     "--io-threads must be between 1 and 64 (got \"%s\")\n",
                     argv[i]);
        return 2;
      }
      options.io_threads = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--window-us") == 0 && i + 1 < argc) {
      // Strict like --port: 0 is a meaningful window, so garbage must
      // not silently become it.
      char* end = nullptr;
      const long long us = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || us < 0) return Usage();
      options.scheduler.window_nanos = us * 1000;
    } else if (std::strcmp(argv[i], "--max-batch") == 0 && i + 1 < argc) {
      long n = 0;
      if (!ParsePositiveInt(argv[++i], 1 << 30, &n)) return Usage();
      options.scheduler.max_batch_queries = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--max-pending") == 0 &&
               i + 1 < argc) {
      long n = 0;
      if (!ParsePositiveInt(argv[++i], 1 << 30, &n)) return Usage();
      options.scheduler.max_pending_queries = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 &&
               i + 1 < argc) {
      // Like --port: 0 means "ephemeral", so strict parse.
      char* end = nullptr;
      const long port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || port < 0 || port > 65535) {
        return Usage();
      }
      options.metrics_port = static_cast<int>(port);
    } else if (std::strcmp(argv[i], "--trace-ring") == 0 && i + 1 < argc) {
      // 0 is the "tracing off" knob, so strict parse again. Cap at 2^20
      // records (136 MiB of ring) — far past useful, well short of silly.
      char* end = nullptr;
      const long slots = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || slots < 0 ||
          slots > (1 << 20)) {
        return Usage();
      }
      options.trace_ring_slots = static_cast<size_t>(slots);
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 &&
               i + 1 < argc) {
      char* end = nullptr;
      const long long ms = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || ms < 0 ||
          ms > 3'600'000) {
        return Usage();
      }
      options.slow_query_nanos = ms * 1'000'000;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      // 0 disables the ring (a JSONL sink alone still enables the
      // journal). Cap mirrors --trace-ring.
      char* end = nullptr;
      const long slots = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || slots < 0 ||
          slots > (1 << 20)) {
        return Usage();
      }
      journal_slots = static_cast<size_t>(slots);
    } else if (std::strcmp(argv[i], "--journal-jsonl") == 0 &&
               i + 1 < argc) {
      journal_jsonl = argv[++i];
    } else if (std::strcmp(argv[i], "--ready-lag-ms") == 0 &&
               i + 1 < argc) {
      char* end = nullptr;
      const long long ms = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || ms < 0 ||
          ms > 86'400'000) {
        return Usage();
      }
      options.ready_max_publish_lag_nanos = ms * 1'000'000;
    } else {
      return Usage();
    }
  }

  if (step_every_ms > 0 && deform.kind == DeformerKind::kNone) {
    std::fprintf(stderr, "--step-every requires --deform\n");
    return 2;
  }

  std::unique_ptr<server::VersionedBackend> backend;
  if (paged) {
    const Status valid = ValidatePoolBytes(argv[2], pool_bytes);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return 1;
    }
    auto opened = server::VersionedBackend::OpenSnapshot(
        argv[2], pool_bytes, static_cast<int>(threads));
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    backend = opened.MoveValue();
  } else {
    auto opened = server::VersionedBackend::OpenMeshFile(
        argv[2], static_cast<int>(threads));
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    backend = opened.MoveValue();
  }
  if (retention_flag_seen && deform.kind == DeformerKind::kNone) {
    std::fprintf(stderr,
                 "--retention-*/--history-epochs/--spill-path require "
                 "--deform (a static server has no epoch history)\n");
    return 2;
  }
  // The journal outlives the server (declared before `srv` below) and
  // attaches BEFORE BindDeformer so the initial epoch's publication is
  // its first epoch event.
  std::FILE* journal_sink = nullptr;
  if (journal_jsonl != nullptr) {
    if (std::strcmp(journal_jsonl, "stderr") == 0) {
      journal_sink = stderr;
    } else {
      journal_sink = std::fopen(journal_jsonl, "ab");
      if (journal_sink == nullptr) {
        std::fprintf(stderr, "cannot open --journal-jsonl %s\n",
                     journal_jsonl);
        return 2;
      }
    }
  }
  obs::EventJournal journal(journal_slots, journal_sink);
  if (journal.enabled()) {
    backend->AttachJournal(&journal);
    options.journal = &journal;
  }
  if (deform.kind != DeformerKind::kNone) {
    if (retention.spill_path.empty()) {
      // Per-instance default: two servers over the same input must not
      // truncate each other's live sidecar (Create opens "w+b").
      retention.spill_path = std::string(argv[2]) + "." +
                             std::to_string(getpid()) + ".oct2d";
    }
    const Status configured = backend->ConfigureRetention(retention);
    if (!configured.ok()) {
      std::fprintf(stderr, "%s\n", configured.ToString().c_str());
      return 2;
    }
    const Status bound = backend->BindDeformer(deform);
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.ToString().c_str());
      return 1;
    }
  }

  server::QueryServer srv(std::move(backend), options);
  const Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  g_server.store(&srv, std::memory_order_release);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("octopus_cli %s serving %s (%s, %ld engine thread(s)%s%s) "
              "on port %u\n",
              kVersionString, argv[2],
              paged ? "out-of-core" : "in-memory", threads,
              deform.kind != DeformerKind::kNone ? ", deformer " : "",
              deform.kind != DeformerKind::kNone
                  ? DeformerKindName(deform.kind)
                  : "",
              srv.port());
  if (options.metrics_port >= 0) {
    std::printf("introspection: http://%s:%u{/metrics,/healthz,/readyz,"
                "/epochs,/journal}\n",
                options.bind_address.c_str(), srv.metrics_port());
  }
  if (journal.enabled()) {
    std::printf("journal: %zu ring slot(s)%s%s\n", journal.capacity(),
                journal_jsonl != nullptr ? ", jsonl to " : "",
                journal_jsonl != nullptr ? journal_jsonl : "");
  }
  std::fflush(stdout);

  // The SIMULATE side: a stepper thread advancing the epoch while the
  // loop serves queries — the paper's Fig. 1(e) timeline, live.
  std::atomic<bool> stepper_stop{false};
  std::thread stepper;
  if (step_every_ms > 0) {
    stepper = std::thread([&srv, &stepper_stop, step_every_ms] {
      while (!stepper_stop.load(std::memory_order_acquire)) {
        // Sleep in short slices so shutdown never waits out a long
        // step interval before the join below can complete.
        for (long slept = 0;
             slept < step_every_ms &&
             !stepper_stop.load(std::memory_order_acquire);
             slept += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<long>(50, step_every_ms - slept)));
        }
        if (stepper_stop.load(std::memory_order_acquire)) break;
        srv.backend()->AdvanceStep();
      }
    });
  }

  const Status run = srv.Run();
  stepper_stop.store(true, std::memory_order_release);
  if (stepper.joinable()) stepper.join();
  g_server.store(nullptr, std::memory_order_release);
  // Every emitter is quiet now (loop drained, stepper joined).
  if (journal_sink != nullptr && journal_sink != stderr) {
    std::fclose(journal_sink);
  }
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.ToString().c_str());
    return 1;
  }
  const server::ServerMetrics m = srv.MetricsSnapshot();
  std::printf("served %llu queries in %llu batches (coalesce factor "
              "%.2f) over %llu connection(s), %u simulation step(s) "
              "applied\n",
              static_cast<unsigned long long>(m.queries_executed),
              static_cast<unsigned long long>(m.batches_executed),
              m.CoalesceFactor(),
              static_cast<unsigned long long>(m.connections_accepted),
              srv.backend()->CurrentEpoch().step);
  return 0;
}

int CmdStep(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(argv[2], &host, &port)) return Usage();
  long steps = 1;
  if (argc > 3) {
    char* end = nullptr;
    steps = std::strtol(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0' || steps < 0 ||
        steps > static_cast<long>(server::kMaxStepsPerFrame)) {
      return Usage();
    }
  }
  auto connected = client::RemoteClient::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return 1;
  }
  auto info = connected.Value()->Step(static_cast<uint32_t>(steps));
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("epoch %llu, step %u (%s%s)",
              static_cast<unsigned long long>(info.Value().epoch),
              info.Value().step,
              info.Value().dynamic != 0 ? "deformer " : "static mesh",
              info.Value().dynamic != 0
                  ? DeformerKindName(static_cast<DeformerKind>(
                        info.Value().deformer_kind))
                  : "");
  if (info.Value().last_step_pages_rewritten > 0) {
    std::printf(", %llu position page(s) rewritten by the last step",
                static_cast<unsigned long long>(
                    info.Value().last_step_pages_rewritten));
  }
  std::printf("\n");
  return 0;
}

int CmdTrace(int argc, char** argv) {
  // octopus_cli trace dump <host:port> [--out FILE]
  //             [--merge-client SPANLOG]
  if (argc < 4 || std::strcmp(argv[2], "dump") != 0) return Usage();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(argv[3], &host, &port)) return Usage();
  const char* out_path = nullptr;
  const char* merge_client = nullptr;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--merge-client") == 0 &&
               i + 1 < argc) {
      merge_client = argv[++i];
    } else {
      return Usage();
    }
  }
  std::vector<obs::ClientCallSpan> spans;
  if (merge_client != nullptr) {
    std::FILE* f = std::fopen(merge_client, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --merge-client %s\n",
                   merge_client);
      return 1;
    }
    char line[1024];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      obs::ClientCallSpan span;
      if (obs::ParseClientCallSpanJson(line, &span)) {
        spans.push_back(span);
      }
    }
    std::fclose(f);
    if (spans.empty()) {
      std::fprintf(stderr, "no client spans in %s (run query --remote "
                   "... --span-log first)\n",
                   merge_client);
      return 1;
    }
  }
  auto connected = client::RemoteClient::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return 1;
  }
  auto dump = connected.Value()->FetchTraceDump();
  if (!dump.ok()) {
    std::fprintf(stderr, "%s\n", dump.status().ToString().c_str());
    return 1;
  }
  const std::string json =
      merge_client != nullptr
          ? obs::MergedChromeTraceJson(dump.Value().records, spans)
          : obs::ChromeTraceJson(dump.Value().records);
  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "wb");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
        std::fclose(f) != 0) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "failed to write %s\n", out_path);
      return 1;
    }
    std::fprintf(stderr,
                 "wrote %zu trace record(s) (of %llu recorded) to %s\n",
                 dump.Value().records.size(),
                 static_cast<unsigned long long>(
                     dump.Value().total_recorded),
                 out_path);
  } else {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  }
  if (dump.Value().records.empty()) {
    std::fprintf(stderr,
                 "note: the server returned no trace records (tracing "
                 "may be disabled: serve --trace-ring 0)\n");
  }
  return 0;
}

int CmdExport(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto mesh = LoadMesh(argv[2]);
  if (!mesh.ok()) {
    std::fprintf(stderr, "%s\n", mesh.status().ToString().c_str());
    return 1;
  }
  const Status st = ExportSurfaceObj(mesh.Value(), argv[3]);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    PrintUsage(stdout);
    return 0;
  }
  if (std::strcmp(argv[1], "--version") == 0 ||
      std::strcmp(argv[1], "version") == 0) {
    std::printf("octopus_cli %s (OCTP protocol v%u, OCT1/OCT2 formats)\n",
                octopus::kVersionString,
                static_cast<unsigned>(octopus::server::kProtocolVersion));
    return 0;
  }
  if (std::strcmp(argv[1], "generate") == 0) return CmdGenerate(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return CmdInfo(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return CmdQuery(argc, argv);
  if (std::strcmp(argv[1], "snapshot") == 0) return CmdSnapshot(argc, argv);
  if (std::strcmp(argv[1], "export") == 0) return CmdExport(argc, argv);
  if (std::strcmp(argv[1], "bench") == 0) return CmdBench(argc, argv);
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(argc, argv);
  if (std::strcmp(argv[1], "step") == 0) return CmdStep(argc, argv);
  if (std::strcmp(argv[1], "trace") == 0) return CmdTrace(argc, argv);
  return Usage();
}
