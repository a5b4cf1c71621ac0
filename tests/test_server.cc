// Copyright 2026 The OCTOPUS Reproduction Authors
// Loopback integration tests of the network query service: remote
// execution must be bit-identical (results and non-I/O counters) to the
// in-process engine on the fig6 workload, in-memory and paged; many
// concurrent clients must each get exactly their own results; the batch
// scheduler must coalesce across connections; malformed frames must be
// rejected with typed errors; and admission control must answer
// overload explicitly while accepted requests still complete across a
// graceful shutdown.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/remote_client.h"
#include "harness/bench_harness.h"
#include "obs/event_journal.h"
#include "obs/trace.h"
#include "server/epoch_store.h"
#include "sim/deformer_spec.h"
#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_io.h"
#include "octopus/query_executor.h"
#include "server/versioned_backend.h"
#include "server/batch_scheduler.h"
#include "server/server.h"
#include "sim/workload.h"
#include "test_util.h"

namespace octopus {
namespace {

using client::RemoteClient;
using server::ErrorCode;
using server::FrameType;
using server::VersionedBackend;
using server::QueryServer;
using server::ServerOptions;
using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

/// Runs a server on an ephemeral loopback port in a background thread;
/// stops and joins on destruction.
class ServerFixture {
 public:
  ServerFixture(std::unique_ptr<VersionedBackend> backend,
                ServerOptions options = {}) {
    options.bind_address = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<QueryServer>(std::move(backend),
                                            std::move(options));
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] {
      const Status run = server_->Run();
      EXPECT_TRUE(run.ok()) << run.ToString();
    });
  }

  ~ServerFixture() { StopAndJoin(); }

  void StopAndJoin() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  QueryServer& server() { return *server_; }

 private:
  std::unique_ptr<QueryServer> server_;
  std::thread thread_;
};

std::unique_ptr<RemoteClient> MustConnect(uint16_t port) {
  auto connected = RemoteClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return connected.MoveValue();
}

/// The STATS sample `name`; -1 when the server did not send it.
double Sample(const Result<server::StatsWire>& stats, const char* name) {
  return stats.Value().Find(name).value_or(-1.0);
}

/// The fig6 monitoring workload: per-step batches for every Fig. 5
/// micro-benchmark spec on `mesh`.
std::vector<std::vector<AABB>> Fig6StepBatches(const TetraMesh& mesh,
                                               int steps) {
  std::vector<std::vector<AABB>> batches;
  const auto specs = NeuroscienceBenchmarks();
  for (size_t b = 0; b < specs.size(); ++b) {
    const auto& spec = specs[b];
    const bench::StepWorkload workload = bench::MakeStepWorkload(
        mesh, steps, spec.queries_per_step_min, spec.queries_per_step_max,
        spec.selectivity_min, spec.selectivity_max,
        /*seed=*/0xF16'0000 + b);
    for (const auto& step : workload.per_step) batches.push_back(step);
  }
  return batches;
}

void ExpectNonIoCountersEqual(const PhaseStats& remote,
                              const PhaseStats& local) {
  EXPECT_EQ(remote.queries, local.queries);
  EXPECT_EQ(remote.probed_vertices, local.probed_vertices);
  EXPECT_EQ(remote.walk_invocations, local.walk_invocations);
  EXPECT_EQ(remote.walk_vertices, local.walk_vertices);
  EXPECT_EQ(remote.crawl_edges, local.crawl_edges);
  EXPECT_EQ(remote.result_vertices, local.result_vertices);
}

// Remote execution of the fig6 workload over the in-memory backend must
// return the exact result sets and non-I/O PhaseStats of the in-process
// engine, batch by batch.
TEST(ServerIntegrationTest, Fig6WorkloadParityInMemory) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.3).MoveValue();
  const auto batches = Fig6StepBatches(mesh, /*steps=*/2);

  // In-process reference.
  Octopus octopus;
  octopus.Build(mesh);
  engine::QueryEngine engine;

  ServerFixture fixture(VersionedBackend::FromMesh(mesh, /*threads=*/1));
  auto remote = MustConnect(fixture.port());
  EXPECT_EQ(remote->server_info().paged, 0);
  EXPECT_EQ(remote->server_info().num_vertices, mesh.num_vertices());

  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    octopus.ResetStats();
    engine::QueryBatchResult expected;
    engine.Execute(octopus, mesh, batches[b], &expected);

    auto result = remote->ExecuteBatch(batches[b]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.Value().results.size(), expected.size());
    for (size_t q = 0; q < expected.size(); ++q) {
      EXPECT_EQ(result.Value().results.per_query[q],
                expected.per_query[q])
          << "query " << q;
    }
    // A single connected client: the coalesced batch is exactly this
    // request, so its stats must equal the in-process engine's.
    ExpectNonIoCountersEqual(result.Value().stats.ToPhaseStats(),
                             octopus.stats());
    EXPECT_GT(octopus.stats().crawl_edges, 0u);
    EXPECT_EQ(result.Value().stats.batch_queries, batches[b].size());
    EXPECT_EQ(result.Value().stats.batch_requests, 1u);
  }
}

// Same parity over the paged (--paged) backend: identical results and
// non-I/O counters to the in-memory engine, plus real page I/O.
TEST(ServerIntegrationTest, Fig6WorkloadParityPaged) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.3).MoveValue();
  const auto batches = Fig6StepBatches(mesh, /*steps=*/1);
  const std::string path = ::testing::TempDir() + "/server_parity.oct2";
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           storage::SnapshotOptions{.page_bytes = 4096})
                  .ok());

  Octopus octopus;
  octopus.Build(mesh);
  engine::QueryEngine engine;

  auto backend =
      VersionedBackend::OpenSnapshot(path, /*pool_bytes=*/64 * 4096,
                                 /*threads=*/1);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  ServerFixture fixture(backend.MoveValue());
  auto remote = MustConnect(fixture.port());
  EXPECT_EQ(remote->server_info().paged, 1);
  EXPECT_EQ(remote->server_info().page_bytes, 4096u);

  uint64_t total_page_accesses = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    octopus.ResetStats();
    engine::QueryBatchResult expected;
    engine.Execute(octopus, mesh, batches[b], &expected);

    auto result = remote->ExecuteBatch(batches[b]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t q = 0; q < expected.size(); ++q) {
      EXPECT_EQ(result.Value().results.per_query[q],
                expected.per_query[q])
          << "query " << q;
    }
    ExpectNonIoCountersEqual(result.Value().stats.ToPhaseStats(),
                             octopus.stats());
    EXPECT_GT(octopus.stats().crawl_edges, 0u);
    total_page_accesses +=
        result.Value().stats.page_hits + result.Value().stats.page_misses;
  }
  EXPECT_GT(total_page_accesses, 0u);
  std::remove(path.c_str());
}

// Eight concurrent clients, each with its own workload: every client
// must get exactly its own (brute-force-verified) results back, and the
// server's counters must account for every query.
TEST(ServerIntegrationTest, EightConcurrentClientsGetTheirOwnResults) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 5;
  constexpr int kQueriesPerRequest = 10;

  // Break-even near 1% selectivity: the 0.1-2% boxes route both ways.
  const TetraMesh mesh = MakeBox(12);
  ServerOptions options;
  options.scheduler.window_nanos = 2'000'000;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = RemoteClient::Connect("127.0.0.1", fixture.port());
      if (!connected.ok()) {
        failures[c] = connected.status().ToString();
        return;
      }
      QueryGenerator gen(mesh);
      Rng rng(1000 + c);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::vector<AABB> queries =
            gen.MakeQueries(&rng, kQueriesPerRequest, 0.001, 0.02);
        auto result = connected.Value()->ExecuteBatch(queries);
        if (!result.ok()) {
          failures[c] = result.status().ToString();
          return;
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          if (Sorted(result.Value().results.per_query[q]) !=
              BruteForceRangeQuery(mesh, queries[q])) {
            failures[c] = "client " + std::to_string(c) +
                          " got wrong results for query " +
                          std::to_string(q);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  auto stats_client = MustConnect(fixture.port());
  auto stats = stats_client->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const double total =
      double{kClients} * kRequestsPerClient * kQueriesPerRequest;
  const double batches = Sample(stats, "octopus_batches_executed_total");
  EXPECT_EQ(Sample(stats, "octopus_queries_received_total"), total);
  EXPECT_EQ(Sample(stats, "octopus_queries_executed_total"), total);
  EXPECT_EQ(Sample(stats, "octopus_queries_rejected_total"), 0.0);
  EXPECT_EQ(Sample(stats, "octopus_queries_routed_octopus_total") +
                Sample(stats, "octopus_queries_routed_scan_total"),
            total);
  EXPECT_GT(Sample(stats, "octopus_queries_routed_octopus_total"), 0.0);
  EXPECT_GT(Sample(stats, "octopus_queries_routed_scan_total"), 0.0);
  EXPECT_GE(batches, 1.0);
  EXPECT_LE(batches, double{kClients} * kRequestsPerClient);
  // The coalesce factor: queries per executed batch.
  EXPECT_GE(total / batches, static_cast<double>(kQueriesPerRequest));
  EXPECT_EQ(Sample(stats, "octopus_connections_accepted_total"),
            kClients + 1.0);

  // Counter self-checks: the accept/close pair can never underflow the
  // derived active gauge, and every executed query was received first.
  fixture.StopAndJoin();
  const server::ServerMetrics metrics = fixture.server().MetricsSnapshot();
  EXPECT_GE(metrics.connections_accepted, metrics.connections_closed);
  EXPECT_EQ(metrics.connections_active(), 0u);  // all drained
  EXPECT_LE(metrics.queries_executed,
            metrics.queries_received - metrics.queries_rejected);
  EXPECT_GE(metrics.results_sent,
            uint64_t{kClients} * kRequestsPerClient);
}

// Deterministic cross-client coalescing: with a size trigger of exactly
// two requests' worth of queries and a long window, the second client's
// request must execute in the same engine batch as the first's.
TEST(ServerIntegrationTest, CoalescesAcrossConnections) {
  const TetraMesh mesh = MakeBox(6);
  ServerOptions options;
  options.scheduler.window_nanos = 2'000'000'000;  // 2 s: size must win
  options.scheduler.max_batch_queries = 8;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  auto client_a = MustConnect(fixture.port());
  auto client_b = MustConnect(fixture.port());
  QueryGenerator gen(mesh);
  Rng rng(3);
  const std::vector<AABB> queries_a = gen.MakeQueries(&rng, 4, 0.01, 0.02);
  const std::vector<AABB> queries_b = gen.MakeQueries(&rng, 4, 0.01, 0.02);

  // Client A's request parks in the scheduler (4 < 8 queries, window
  // far away); client B's pushes the pending count to the size trigger.
  Result<client::RemoteBatchResult> result_a =
      Status::IOError("not run");
  std::thread thread_a([&] {
    result_a = client_a->ExecuteBatch(queries_a);
  });
  auto result_b = client_b->ExecuteBatch(queries_b);
  thread_a.join();

  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
  // Both were served by one coalesced batch of both requests.
  EXPECT_EQ(result_a.Value().stats.batch_requests, 2u);
  EXPECT_EQ(result_a.Value().stats.batch_queries, 8u);
  EXPECT_EQ(result_b.Value().stats.batch_requests, 2u);
  for (size_t q = 0; q < queries_a.size(); ++q) {
    EXPECT_EQ(Sorted(result_a.Value().results.per_query[q]),
              BruteForceRangeQuery(mesh, queries_a[q]));
  }
  for (size_t q = 0; q < queries_b.size(); ++q) {
    EXPECT_EQ(Sorted(result_b.Value().results.per_query[q]),
              BruteForceRangeQuery(mesh, queries_b[q]));
  }
}

// --- Malformed-frame rejection, at the raw socket level ---

/// Connects a plain blocking socket to the loopback server.
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void SendRaw(int fd, const server::Buffer& bytes) {
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

/// Reads one frame; returns false on clean EOF before a full frame.
bool ReadFrameRaw(int fd, FrameType* type, server::Buffer* payload) {
  uint8_t header[server::kFrameHeaderBytes];
  size_t have = 0;
  while (have < sizeof(header)) {
    const ssize_t n = recv(fd, header + have, sizeof(header) - have, 0);
    if (n <= 0) return false;
    have += static_cast<size_t>(n);
  }
  auto parsed = server::ParseFrameHeader(header);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return false;
  *type = parsed.Value().type;
  payload->resize(parsed.Value().payload_bytes);
  have = 0;
  while (have < payload->size()) {
    const ssize_t n =
        recv(fd, payload->data() + have, payload->size() - have, 0);
    if (n <= 0) return false;
    have += static_cast<size_t>(n);
  }
  return true;
}

/// Expects an ERROR frame with `code`, followed by connection close.
void ExpectErrorThenClose(int fd, ErrorCode code) {
  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  server::ErrorFrame error;
  ASSERT_TRUE(server::ParseError(payload, &error).ok());
  EXPECT_EQ(error.code, code) << server::ErrorCodeName(error.code);
  // The server closes after flushing the error: next read is EOF.
  uint8_t byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
}

server::Buffer ValidHello() {
  server::Buffer bytes;
  server::AppendHello(&bytes, server::HelloFrame{});
  return bytes;
}

TEST(ServerIntegrationTest, RejectsMalformedFrames) {
  const TetraMesh mesh = MakeBox(4);
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1));

  {
    SCOPED_TRACE("garbage bytes instead of a frame");
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, server::Buffer(16, 'X'));
    ExpectErrorThenClose(fd, ErrorCode::kMalformedFrame);
    close(fd);
  }
  {
    SCOPED_TRACE("oversized announced payload");
    server::Buffer bytes(server::kFrameHeaderBytes, 0);
    const uint32_t huge = server::kMaxFramePayloadBytes + 1;
    std::memcpy(bytes.data(), &huge, sizeof(huge));
    bytes[4] = static_cast<uint8_t>(FrameType::kHello);
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    ExpectErrorThenClose(fd, ErrorCode::kFrameTooLarge);
    close(fd);
  }
  {
    SCOPED_TRACE("HELLO with wrong magic");
    server::Buffer bytes;
    server::HelloFrame hello;
    hello.magic = 0xDEADBEEF;
    server::AppendHello(&bytes, hello);
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    ExpectErrorThenClose(fd, ErrorCode::kBadMagic);
    close(fd);
  }
  {
    SCOPED_TRACE("HELLO with unsupported version");
    server::Buffer bytes;
    server::HelloFrame hello;
    hello.version = 999;
    server::AppendHello(&bytes, hello);
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    ExpectErrorThenClose(fd, ErrorCode::kVersionMismatch);
    close(fd);
  }
  {
    // A previous-generation peer (v6: fixed 18-counter STATS) must be
    // turned away at the handshake, not mid-stream.
    SCOPED_TRACE("HELLO from a v6 peer");
    server::Buffer bytes;
    server::HelloFrame hello;
    hello.version = server::kProtocolVersion - 1;
    server::AppendHello(&bytes, hello);
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    ExpectErrorThenClose(fd, ErrorCode::kVersionMismatch);
    close(fd);
  }
  {
    SCOPED_TRACE("query before HELLO");
    server::Buffer bytes;
    server::AppendQueryBatch(&bytes, 1, {});
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    ExpectErrorThenClose(fd, ErrorCode::kUnexpectedFrame);
    close(fd);
  }
  {
    SCOPED_TRACE("QUERY_BATCH whose count lies about the payload");
    server::Buffer bytes = ValidHello();
    const std::vector<AABB> one = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
    server::Buffer query;
    server::AppendQueryBatch(&query, 1, one);
    query[server::kFrameHeaderBytes + 8] = 7;  // count field
    bytes.insert(bytes.end(), query.begin(), query.end());
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    FrameType type;
    server::Buffer payload;
    ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
    EXPECT_EQ(type, FrameType::kWelcome);
    ExpectErrorThenClose(fd, ErrorCode::kMalformedFrame);
    close(fd);
  }
  {
    SCOPED_TRACE("server-only frame type from a client");
    server::Buffer bytes = ValidHello();
    server::AppendStats(&bytes, server::StatsWire{});
    const int fd = RawConnect(fixture.port());
    SendRaw(fd, bytes);
    FrameType type;
    server::Buffer payload;
    ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
    EXPECT_EQ(type, FrameType::kWelcome);
    ExpectErrorThenClose(fd, ErrorCode::kUnexpectedFrame);
    close(fd);
  }

  // The server survived every abuse: a well-behaved client still works.
  auto remote = MustConnect(fixture.port());
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  auto result = remote->ExecuteBatch(queries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result.Value().results.per_query[0]),
            BruteForceRangeQuery(mesh, queries[0]));

  // Garbage, oversized and count-lie frames count as malformed (bad
  // magic / version / unexpected type are protocol errors, not framing
  // errors).
  fixture.StopAndJoin();
  EXPECT_GE(fixture.server().MetricsSnapshot().malformed_frames, 3u);
}

// The WELCOME frame must advertise the CONFIGURED coalescing cap. The
// concurrency audit replaced the I/O threads' unlocked read of the
// scheduler (which lives behind sched_mu_) with the server's immutable
// options copy; this pins down that the advertised value is still the
// configured one, not a default that happens to match.
TEST(ServerIntegrationTest, WelcomeAdvertisesConfiguredBatchCap) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.scheduler.max_batch_queries = 123;  // non-default on purpose
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  const int fd = RawConnect(fixture.port());
  SendRaw(fd, ValidHello());
  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kWelcome);
  server::WelcomeFrame welcome;
  ASSERT_TRUE(server::ParseWelcome(payload, &welcome).ok());
  EXPECT_EQ(welcome.max_batch_queries, 123u);
  EXPECT_EQ(welcome.version, server::kProtocolVersion);
  close(fd);
}

// Admission control: a full pending queue answers OVERLOADED without
// dropping the connection or the already-accepted request — which still
// completes, even across a graceful shutdown.
TEST(ServerIntegrationTest, OverloadIsExplicitAndAcceptedWorkCompletes) {
  const TetraMesh mesh = MakeBox(6);
  ServerOptions options;
  options.scheduler.window_nanos = 60'000'000'000;  // park requests
  options.scheduler.max_batch_queries = 1000;
  options.scheduler.max_pending_queries = 8;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  QueryGenerator gen(mesh);
  Rng rng(9);
  const std::vector<AABB> queries_a = gen.MakeQueries(&rng, 6, 0.01, 0.02);
  const std::vector<AABB> queries_b = gen.MakeQueries(&rng, 6, 0.01, 0.02);

  auto client_a = MustConnect(fixture.port());
  auto client_b = MustConnect(fixture.port());

  // A's 6 queries park in the scheduler (window is a minute out).
  Result<client::RemoteBatchResult> result_a =
      Status::IOError("not run");
  std::thread thread_a([&] {
    result_a = client_a->ExecuteBatch(queries_a);
  });
  // Wait until the server has actually admitted A's queries.
  while (true) {
    auto stats = client_b->FetchStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (Sample(stats, "octopus_queries_received_total") >=
        static_cast<double>(queries_a.size())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // B's 6 would exceed the 8-query admission bound: explicit rejection.
  auto result_b = client_b->ExecuteBatch(queries_b);
  ASSERT_FALSE(result_b.ok());
  EXPECT_EQ(result_b.status().code(),
            Status::Code::kResourceExhausted)
      << result_b.status().ToString();

  // The rejected client's connection is still usable.
  auto stats_after = client_b->FetchStats();
  ASSERT_TRUE(stats_after.ok()) << stats_after.status().ToString();
  EXPECT_EQ(Sample(stats_after, "octopus_queries_rejected_total"),
            static_cast<double>(queries_b.size()));

  // Graceful shutdown executes A's parked request before closing.
  fixture.StopAndJoin();
  thread_a.join();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  for (size_t q = 0; q < queries_a.size(); ++q) {
    EXPECT_EQ(Sorted(result_a.Value().results.per_query[q]),
              BruteForceRangeQuery(mesh, queries_a[q]));
  }
}

// A peer may write its requests and half-close (SHUT_WR) before
// reading: frames buffered at EOF must still be parsed and answered,
// and the session must stay alive until the response is delivered.
TEST(ServerIntegrationTest, HalfClosedClientStillGetsItsResults) {
  const TetraMesh mesh = MakeBox(6);
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1));

  const int fd = RawConnect(fixture.port());
  server::Buffer bytes = ValidHello();
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  server::AppendQueryBatch(&bytes, 77, queries);
  SendRaw(fd, bytes);
  ASSERT_EQ(shutdown(fd, SHUT_WR), 0);

  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  EXPECT_EQ(type, FrameType::kWelcome);
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kResult);
  uint64_t request_id = 0;
  server::BatchStatsWire stats;
  std::vector<std::vector<VertexId>> per_query;
  ASSERT_TRUE(
      server::ParseResult(payload, &request_id, &stats, &per_query).ok());
  EXPECT_EQ(request_id, 77u);
  ASSERT_EQ(per_query.size(), 1u);
  EXPECT_EQ(Sorted(per_query[0]), BruteForceRangeQuery(mesh, queries[0]));
  // After delivering everything it owed, the server closes its side.
  uint8_t byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
  close(fd);
}

// A RESULT the serializer posts while the I/O thread is between its
// eventfd drain and its inbox swap must not lose its wakeup: a client
// that pipelines and then waits in silence sends no socket event that
// would deliver it late. Every answer it is owed must arrive.
TEST(ServerIntegrationTest, PipelinedRequestsAllAnsweredAfterSilence) {
  constexpr int kRounds = 40;
  constexpr uint64_t kRequestsPerRound = 16;
  const TetraMesh mesh = MakeBox(6);
  ServerOptions options;
  options.scheduler.window_nanos = 0;  // one batch per request: many posts
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 2), options);

  const int fd = RawConnect(fixture.port());
  const timeval recv_timeout{.tv_sec = 5, .tv_usec = 0};
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                       sizeof(recv_timeout)),
            0);
  SendRaw(fd, ValidHello());
  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kWelcome);

  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(0.5f, 1, 1)),
                                     AABB(Vec3(0.5f, 0, 0), Vec3(1, 1, 1))};
  uint64_t next_id = 1;
  for (int round = 0; round < kRounds; ++round) {
    server::Buffer bytes;
    for (uint64_t r = 0; r < kRequestsPerRound; ++r) {
      server::AppendQueryBatch(&bytes, next_id + r, queries);
    }
    SendRaw(fd, bytes);
    // Silence from here on: only the server's own wakeups deliver.
    std::vector<bool> answered(kRequestsPerRound, false);
    for (uint64_t r = 0; r < kRequestsPerRound; ++r) {
      ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload))
          << "round " << round << ": answer " << r << " of "
          << kRequestsPerRound << " never arrived";
      ASSERT_EQ(type, FrameType::kResult);
      uint64_t request_id = 0;
      server::BatchStatsWire stats;
      std::vector<std::vector<VertexId>> per_query;
      ASSERT_TRUE(
          server::ParseResult(payload, &request_id, &stats, &per_query)
              .ok());
      ASSERT_GE(request_id, next_id);
      ASSERT_LT(request_id, next_id + kRequestsPerRound);
      EXPECT_FALSE(answered[request_id - next_id]) << "duplicate answer";
      answered[request_id - next_id] = true;
    }
    next_id += kRequestsPerRound;
  }
  close(fd);
}

// Silent connections must not pin max_connections slots forever: a
// session that never sends its HELLO (and one that handshakes, then
// goes mute) is answered with a typed TIMEOUT error and closed once the
// idle deadline passes — while a client with a request parked in the
// scheduler is exempt (the server owes IT an answer).
TEST(ServerIntegrationTest, IdleSessionsTimeOutWithTypedError) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.idle_timeout_nanos = 100'000'000;  // 100 ms
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  // Never sends a byte: handshake timeout.
  const int silent_fd = RawConnect(fixture.port());
  // Handshakes, then goes mute: idle timeout.
  const int mute_fd = RawConnect(fixture.port());
  SendRaw(mute_fd, ValidHello());
  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(mute_fd, &type, &payload));
  EXPECT_EQ(type, FrameType::kWelcome);

  ExpectErrorThenClose(silent_fd, ErrorCode::kTimeout);
  ExpectErrorThenClose(mute_fd, ErrorCode::kTimeout);
  close(silent_fd);
  close(mute_fd);

  // A session waiting on its own parked request survives deadlines far
  // longer than the timeout: the pending work exempts it.
  ServerOptions parked;
  parked.idle_timeout_nanos = 100'000'000;
  parked.scheduler.window_nanos = 400'000'000;  // 4x the idle timeout
  ServerFixture parked_fixture(VersionedBackend::FromMesh(mesh, 1),
                               parked);
  auto client = MustConnect(parked_fixture.port());
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  auto result = client->ExecuteBatch(queries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result.Value().results.per_query[0]),
            BruteForceRangeQuery(mesh, queries[0]));
}

// Regression: a session whose request waited out a coalescing window
// LONGER than the idle timeout must not be condemned the moment its
// result is delivered. `last_activity_nanos` used to advance only on
// received frames, so the pending-exemption lapsed at dispatch with the
// activity clock still pointing at the long-gone receive — the next
// loop iteration sent ERROR(TIMEOUT) and closed, right after a
// perfectly served request. Activity now also advances at dispatch.
TEST(ServerIntegrationTest, SlowCoalescingWindowDoesNotCondemnSession) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.idle_timeout_nanos = 100'000'000;        // 100 ms
  options.scheduler.window_nanos = 300'000'000;    // 3x the idle timeout
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  auto client = MustConnect(fixture.port());
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};

  // First request parks for the full 300 ms window, then executes.
  auto first = client->ExecuteBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // With the bug, the session is already condemned: the second request
  // would be answered by the buffered ERROR(TIMEOUT) + close instead of
  // a RESULT. With the fix, the idle clock restarted at delivery and
  // the session has a full timeout of headroom.
  auto second = client->ExecuteBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(Sorted(second.Value().results.per_query[0]),
            BruteForceRangeQuery(mesh, queries[0]));
}

// Graceful drain announces itself: instead of a silent EOF, every
// surviving session receives ERROR(SHUTTING_DOWN) after the results it
// is owed.
TEST(ServerIntegrationTest, DrainEmitsTypedShuttingDown) {
  const TetraMesh mesh = MakeBox(4);
  auto fixture = std::make_unique<ServerFixture>(
      VersionedBackend::FromMesh(mesh, 1));

  const int fd = RawConnect(fixture->port());
  server::Buffer bytes = ValidHello();
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  server::AppendQueryBatch(&bytes, 5, queries);
  SendRaw(fd, bytes);
  FrameType type;
  server::Buffer payload;
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  EXPECT_EQ(type, FrameType::kWelcome);
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kResult);

  // Stop the server while the connection is alive and fully served.
  fixture->StopAndJoin();

  // The drain delivered a typed goodbye, then closed.
  ASSERT_TRUE(ReadFrameRaw(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  server::ErrorFrame error;
  ASSERT_TRUE(server::ParseError(payload, &error).ok());
  EXPECT_EQ(error.code, ErrorCode::kShuttingDown)
      << server::ErrorCodeName(error.code);
  uint8_t byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
  close(fd);
}

TEST(ServerIntegrationTest, EmptyBatchReturnsImmediately) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.scheduler.window_nanos = 60'000'000'000;  // would park forever
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  auto remote = MustConnect(fixture.port());
  auto result = remote->ExecuteBatch({});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.Value().results.size(), 0u);
  EXPECT_EQ(result.Value().stats.queries, 0u);
}

TEST(BatchSchedulerTest, CoalescesWholeRequestsUpToTheCap) {
  auto backend = VersionedBackend::FromMesh(MakeBox(4), 1);
  server::SchedulerOptions options;
  options.max_batch_queries = 5;
  options.window_nanos = 1'000'000'000;
  server::BatchScheduler scheduler(options);
  server::ServerMetrics metrics;

  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  auto request = [&](uint64_t session, uint64_t id, size_t queries) {
    server::PendingRequest r;
    r.session_id = session;
    r.request_id = id;
    r.boxes.assign(queries, box);
    r.arrival_nanos = 100;
    return r;
  };

  // 3 + 2 fill the cap exactly; the third request waits for the next
  // batch.
  ASSERT_TRUE(scheduler.Enqueue(request(1, 1, 3)));
  ASSERT_TRUE(scheduler.Enqueue(request(2, 2, 2)));
  ASSERT_TRUE(scheduler.Enqueue(request(3, 3, 4)));
  EXPECT_EQ(scheduler.pending_queries(), 9u);
  // Size trigger reached: due immediately regardless of the window.
  EXPECT_EQ(scheduler.NanosUntilDue(101), 0);

  std::vector<server::CompletedRequest> completed;
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0].request_id, 1u);
  EXPECT_EQ(completed[1].request_id, 2u);
  EXPECT_EQ(completed[0].stats.batch_queries, 5u);
  EXPECT_EQ(completed[0].stats.batch_requests, 2u);
  EXPECT_EQ(completed[0].per_query.size(), 3u);
  EXPECT_EQ(completed[1].per_query.size(), 2u);
  EXPECT_EQ(metrics.batches_executed, 1u);
  EXPECT_EQ(metrics.queries_executed, 5u);
  EXPECT_EQ(scheduler.pending_queries(), 4u);

  // Remaining request executes when its window expires.
  EXPECT_GT(scheduler.NanosUntilDue(101), 0);
  EXPECT_EQ(scheduler.NanosUntilDue(100 + 1'000'000'000), 0);
  completed.clear();
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].request_id, 3u);
  EXPECT_EQ(completed[0].stats.batch_requests, 1u);
  EXPECT_FALSE(scheduler.HasPending());
}

TEST(BatchSchedulerTest, OversizedRequestExecutesAlone) {
  auto backend = VersionedBackend::FromMesh(MakeBox(4), 1);
  server::SchedulerOptions options;
  options.max_batch_queries = 2;
  server::BatchScheduler scheduler(options);
  server::ServerMetrics metrics;

  server::PendingRequest big;
  big.session_id = 1;
  big.request_id = 1;
  big.boxes.assign(7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  ASSERT_TRUE(scheduler.Enqueue(std::move(big)));
  std::vector<server::CompletedRequest> completed;
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].per_query.size(), 7u);
  EXPECT_EQ(completed[0].stats.batch_queries, 7u);
}

/// A dynamic in-memory backend over a small box with `steps` steps
/// published: epochs 1 .. steps + 1 are resident.
std::unique_ptr<VersionedBackend> SteppedBackend(int steps) {
  auto backend = VersionedBackend::FromMesh(MakeBox(4), 1);
  DeformerSpec spec;
  spec.kind = DeformerKind::kRandom;
  spec.amplitude = 0.02f;
  spec.seed = 7;
  EXPECT_TRUE(backend->BindDeformer(spec).ok());
  for (int s = 0; s < steps; ++s) backend->AdvanceStep();
  return backend;
}

server::PendingRequest EpochRequest(uint64_t session, uint64_t id,
                                    size_t queries, engine::EpochId epoch) {
  server::PendingRequest r;
  r.session_id = session;
  r.request_id = id;
  r.boxes.assign(queries, AABB(Vec3(0, 0, 0), Vec3(0.6f, 0.6f, 0.6f)));
  r.epoch = epoch;
  return r;
}

// One queue for every epoch: each batch is the head request's epoch
// group, FIFO and capped; requests for other epochs keep their place.
TEST(BatchSchedulerTest, CoalescesPerEpochInArrivalOrder) {
  auto backend = SteppedBackend(3);  // epochs 1..4, 4 current
  server::SchedulerOptions options;
  options.max_batch_queries = 4;
  server::BatchScheduler scheduler(options);
  server::ServerMetrics metrics;

  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(1, 'A', 2, 0)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(2, 'B', 2, 2)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(3, 'C', 2, 0)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(4, 'D', 2, 2)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(5, 'E', 1, 3)));
  // F is current too, but A + C already fill the cap of 4.
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(6, 'F', 1, 0)));
  EXPECT_EQ(scheduler.pending_queries(), 10u);

  struct Expected {
    std::vector<uint64_t> ids;
    uint64_t epoch;
  };
  const std::vector<Expected> expected = {
      {{'A', 'C'}, 4}, {{'B', 'D'}, 2}, {{'E'}, 3}, {{'F'}, 4}};
  for (size_t b = 0; b < expected.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<server::CompletedRequest> completed;
    scheduler.ExecuteReady(backend.get(), &completed, &metrics);
    ASSERT_EQ(completed.size(), expected[b].ids.size());
    uint32_t batch_queries = 0;
    for (size_t r = 0; r < completed.size(); ++r) {
      const server::CompletedRequest& done = completed[r];
      EXPECT_TRUE(done.status.ok()) << done.status.ToString();
      EXPECT_EQ(done.request_id, expected[b].ids[r]);
      EXPECT_EQ(done.stats.batch_requests, completed.size());
      EXPECT_EQ(done.stats.epoch.epoch, expected[b].epoch);
      EXPECT_EQ(done.stats.epoch.step, expected[b].epoch - 1);
      batch_queries += static_cast<uint32_t>(done.per_query.size());
    }
    EXPECT_LE(batch_queries, options.max_batch_queries);
    EXPECT_EQ(completed[0].stats.batch_queries, batch_queries);
    EXPECT_EQ(metrics.batches_executed, b + 1);
  }
  EXPECT_FALSE(scheduler.HasPending());
  EXPECT_EQ(scheduler.pending_queries(), 0u);
  EXPECT_EQ(metrics.queries_executed, 10u);
  EXPECT_EQ(metrics.queries_rejected, 0u);

  // A coalesced historical slice is exactly what a solo run at that
  // epoch returns.
  const AABB box(Vec3(0, 0, 0), Vec3(0.6f, 0.6f, 0.6f));
  engine::QueryBatchResult solo;
  PhaseStats solo_stats;
  ASSERT_TRUE(backend->ExecuteAt(2, std::span<const AABB>(&box, 1), &solo,
                                 &solo_stats)
                  .ok());
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(2, 'G', 1, 2)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(3, 'H', 1, 2)));
  std::vector<server::CompletedRequest> completed;
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[1].per_query[0], solo.per_query[0]);
}

// A group whose epoch is gone completes every request with the status
// (answered EPOCH_GONE); no batch counter moves, the group's queries
// count as rejected, and the next group still runs.
TEST(BatchSchedulerTest, GoneEpochGroupCompletesWithItsStatus) {
  auto backend = SteppedBackend(2);
  server::BatchScheduler scheduler(server::SchedulerOptions{});
  server::ServerMetrics metrics;

  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(1, 1, 2, 9999)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(2, 2, 1, 0)));
  ASSERT_TRUE(scheduler.Enqueue(EpochRequest(3, 3, 3, 9999)));

  std::vector<server::CompletedRequest> completed;
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0].request_id, 1u);
  EXPECT_EQ(completed[1].request_id, 3u);
  for (const server::CompletedRequest& done : completed) {
    EXPECT_EQ(done.status.code(), Status::Code::kNotFound);
    EXPECT_NE(done.status.message().find("epoch 9999"), std::string::npos)
        << done.status.ToString();
    EXPECT_TRUE(done.per_query.empty());
  }
  EXPECT_EQ(metrics.batches_executed, 0u);
  EXPECT_EQ(metrics.queries_executed, 0u);
  EXPECT_EQ(metrics.queries_rejected, 5u);
  EXPECT_EQ(scheduler.pending_queries(), 1u);

  completed.clear();
  scheduler.ExecuteReady(backend.get(), &completed, &metrics);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_TRUE(completed[0].status.ok());
  EXPECT_EQ(completed[0].stats.epoch.epoch, 3u);
  EXPECT_EQ(metrics.batches_executed, 1u);
  EXPECT_EQ(metrics.queries_rejected, 5u);
}

TEST(BatchSchedulerTest, AdmissionControlAndSessionDrop) {
  server::SchedulerOptions options;
  options.max_pending_queries = 10;
  server::BatchScheduler scheduler(options);

  // One bound counts every admitted query, whatever its epoch.
  auto request = [&](uint64_t session, size_t queries,
                     engine::EpochId epoch = 0) {
    return EpochRequest(session, session, queries, epoch);
  };
  EXPECT_TRUE(scheduler.Enqueue(request(1, 6)));
  EXPECT_FALSE(scheduler.Enqueue(request(2, 6)));     // 12 > 10
  EXPECT_FALSE(scheduler.Enqueue(request(2, 6, 3)));  // historical too
  EXPECT_TRUE(scheduler.Enqueue(request(3, 4, 2)));   // fits exactly
  EXPECT_EQ(scheduler.pending_queries(), 10u);
  EXPECT_FALSE(scheduler.Enqueue(request(5, 1)));
  EXPECT_FALSE(scheduler.Enqueue(request(5, 1, 2)));

  scheduler.DropSession(1);
  EXPECT_EQ(scheduler.pending_queries(), 4u);
  EXPECT_TRUE(scheduler.Enqueue(request(2, 6)));  // freed capacity
  EXPECT_EQ(scheduler.pending_queries(), 10u);

  // DropSession covers historical requests as well.
  scheduler.DropSession(3);
  EXPECT_EQ(scheduler.pending_queries(), 6u);
  EXPECT_TRUE(scheduler.Enqueue(request(6, 2, 7)));
  EXPECT_TRUE(scheduler.Enqueue(request(6, 2, 8)));
  EXPECT_EQ(scheduler.pending_queries(), 10u);
  scheduler.DropSession(6);
  EXPECT_EQ(scheduler.pending_queries(), 6u);

  // An empty queue admits even a request above the bound by itself, so
  // an oversized batch is served alone, never rejected forever.
  scheduler.DropSession(2);
  ASSERT_FALSE(scheduler.HasPending());
  EXPECT_TRUE(scheduler.Enqueue(request(4, 25, 2)));
  EXPECT_EQ(scheduler.pending_queries(), 25u);
  EXPECT_FALSE(scheduler.Enqueue(request(5, 1)));  // bound applies again
}

// --- Observability: /metrics endpoint and flight-recorder dumps ---

/// One blocking HTTP/1.0 GET against the server's metrics port;
/// returns the full response (status line + headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = RawConnect(port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

/// The samples of exposition text, `_bucket` series excepted.
std::map<std::string, double> ScrapeSamples(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#' ||
        line.find("_bucket{") != std::string::npos) {
      continue;
    }
    const size_t space = line.find(' ');
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

/// The value of sample `name` in exposition text; -1 when absent.
double MetricValue(const std::string& text, const std::string& name) {
  const std::map<std::string, double> samples = ScrapeSamples(text);
  const auto it = samples.find(name);
  return it == samples.end() ? -1.0 : it->second;
}

// /metrics and OCTP STATS are one loop over one metric table: the
// STATS sample names are exactly the scrape's non-`_bucket` samples,
// with bit-equal values.
TEST(ServerIntegrationTest, MetricsEndpointMatchesOctpStats) {
  const TetraMesh mesh = MakeBox(6);
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  const uint16_t metrics_port = fixture.server().metrics_port();
  ASSERT_NE(metrics_port, 0);

  auto remote = MustConnect(fixture.port());
  QueryGenerator gen(mesh);
  Rng rng(21);
  for (int r = 0; r < 3; ++r) {
    auto result =
        remote->ExecuteBatch(gen.MakeQueries(&rng, 5, 0.01, 0.05));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // STATS first: after its reply no further OCTP frames arrive, so the
  // scrape that follows must observe the identical counters.
  auto stats = remote->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const std::string response = HttpGet(metrics_port, "/metrics");
  ASSERT_NE(response.find("HTTP/1.0 200"), std::string::npos)
      << response.substr(0, 64);
  ASSERT_NE(response.find("text/plain"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);

  const std::map<std::string, double> scraped = ScrapeSamples(body);
  std::map<std::string, double> sent;
  for (const server::StatsSample& sample : stats.Value().samples) {
    sent[sample.name] = sample.value;
  }
  ASSERT_EQ(sent.size(), stats.Value().samples.size()) << "duplicate names";
  ASSERT_EQ(sent.size(), scraped.size());
  for (const auto& [name, value] : sent) {
    ASSERT_EQ(scraped.count(name), 1u) << name << " is not scraped";
    const double got = scraped.at(name);
    if (name.rfind("octopus_loop_stall_seconds_", 0) == 0) {
      // The wakeup that served STATS records its own busy time only
      // after the reply went out, so the later scrape may hold it.
      EXPECT_GE(got, value) << name;
      continue;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(value))
        << name << ": scraped " << got << ", STATS " << value;
  }
  // Histogram plumbing: every executed request is in the histogram.
  EXPECT_EQ(scraped.at("octopus_request_latency_seconds_count"), 3.0);
  // Tracing is on by default: the ring saw every request too.
  EXPECT_EQ(scraped.at("octopus_trace_records_total"), 3.0);

  // A second scrape must be monotone in every counter it repeats.
  auto again = remote->ExecuteBatch(gen.MakeQueries(&rng, 2, 0.01, 0.05));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  const std::string response2 = HttpGet(metrics_port, "/metrics");
  const std::map<std::string, double> later =
      ScrapeSamples(response2.substr(response2.find("\r\n\r\n") + 4));
  for (const char* counter :
       {"octopus_frames_received_total", "octopus_results_sent_total",
        "octopus_trace_records_total"}) {
    EXPECT_GE(later.at(counter), scraped.at(counter)) << counter;
  }
  EXPECT_EQ(later.at("octopus_queries_received_total"),
            scraped.at("octopus_queries_received_total") + 2);

  // Unknown paths 404; the OCTP plane is untouched by scrapes.
  const std::string missing = HttpGet(metrics_port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos)
      << missing.substr(0, 64);
  auto final_stats = remote->FetchStats();
  ASSERT_TRUE(final_stats.ok()) << final_stats.status().ToString();
  EXPECT_EQ(Sample(final_stats, "octopus_queries_received_total"),
            sent.at("octopus_queries_received_total") + 2);
}

// TRACE_DUMP end to end: executed requests must appear in the ring
// with non-zero phase spans, and the CLI's Chrome-trace rendering of
// the dump must carry those spans.
TEST(ServerIntegrationTest, TraceDumpCapturesPhaseTimings) {
  const TetraMesh mesh = MakeBox(12);
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1));
  auto remote = MustConnect(fixture.port());

  // A small interior box guarantees probe, walk and crawl work (the
  // Eq. 6 route leaves it to OCTOPUS); the whole-mesh box, which the
  // route sends to the scan, a large result set to serialize.
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                                     AABB(Vec3(0.4f, 0.4f, 0.4f),
                                          Vec3(0.55f, 0.55f, 0.55f))};
  auto result = remote->ExecuteBatch(queries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto dump = remote->FetchTraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump.Value().total_recorded, 1u);
  ASSERT_EQ(dump.Value().records.size(), 1u);
  const obs::QueryTraceRecord& rec = dump.Value().records[0];
  EXPECT_EQ(rec.trace_id, 1u);
  EXPECT_EQ(rec.queries, queries.size());
  EXPECT_EQ(rec.batch_queries, queries.size());
  EXPECT_EQ(rec.batch_requests, 1u);
  EXPECT_GT(rec.probe_nanos, 0);
  EXPECT_GT(rec.crawl_nanos, 0);
  EXPECT_GT(rec.serialize_nanos, 0);
  EXPECT_GT(rec.total_nanos, 0);
  EXPECT_GE(rec.queue_wait_nanos, 0);
  EXPECT_GT(rec.result_vertices, 0u);
  // The trace's wall clock is at least the sum of its engine phases.
  EXPECT_GE(rec.total_nanos, rec.probe_nanos + rec.walk_nanos +
                                 rec.crawl_nanos + rec.serialize_nanos);

  // A second request lands behind the first, ids strictly ordered.
  ASSERT_TRUE(remote->ExecuteBatch(queries).ok());
  auto dump2 = remote->FetchTraceDump();
  ASSERT_TRUE(dump2.ok()) << dump2.status().ToString();
  ASSERT_EQ(dump2.Value().records.size(), 2u);
  EXPECT_EQ(dump2.Value().records[0].trace_id, 1u);
  EXPECT_EQ(dump2.Value().records[1].trace_id, 2u);
  EXPECT_GE(dump2.Value().records[1].arrival_nanos,
            dump2.Value().records[0].arrival_nanos);

  // The Chrome rendering of the live dump carries the spans proved
  // non-zero above (zero-duration spans are elided by design — the
  // full phase-name set is unit-tested in test_obs.cc).
  const std::string json = obs::ChromeTraceJson(dump2.Value().records);
  for (const char* name : {"\"request\"", "\"probe\"", "\"crawl\"",
                           "\"serialize\"", "\"traceEvents\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// serve --trace-ring 0: the dump answers empty instead of erroring,
// and the query path is unaffected.
TEST(ServerIntegrationTest, DisabledTracingAnswersEmptyDump) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.trace_ring_slots = 0;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  auto remote = MustConnect(fixture.port());
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  ASSERT_TRUE(remote->ExecuteBatch(queries).ok());
  auto dump = remote->FetchTraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump.Value().total_recorded, 0u);
  EXPECT_TRUE(dump.Value().records.empty());
}

// --slow-query-ms: a threshold of one nanosecond classifies every
// request as slow; the counter must say so.
TEST(ServerIntegrationTest, SlowQueryThresholdCountsRequests) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.slow_query_nanos = 1;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  auto remote = MustConnect(fixture.port());
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  ASSERT_TRUE(remote->ExecuteBatch(queries).ok());
  ASSERT_TRUE(remote->ExecuteBatch(queries).ok());
  fixture.StopAndJoin();
  EXPECT_EQ(fixture.server().MetricsSnapshot().slow_queries, 2u);
}

/// A retention-configured dynamic backend whose epochs spill and evict
/// within a few steps (window 2, history 4, sidecar under TempDir).
std::unique_ptr<VersionedBackend> MakeDeformingBackend(
    const TetraMesh& mesh, const std::string& spill_name) {
  auto backend = VersionedBackend::FromMesh(mesh, 1);
  server::EpochRetentionOptions retention;
  retention.retention_epochs = 2;
  retention.history_epochs = 4;
  retention.spill_path = ::testing::TempDir() + "/" + spill_name;
  EXPECT_TRUE(backend->ConfigureRetention(retention).ok());
  DeformerSpec spec;
  spec.kind = DeformerKind::kRandom;
  spec.amplitude = 0.02f;
  spec.seed = 2026;
  EXPECT_TRUE(backend->BindDeformer(spec).ok());
  return backend;
}

// The tentpole acceptance bar: driving pin / step / unpin over OCTP
// against a spilling backend must produce an ordered lifecycle stream,
// and /journal must serve exactly what the ring holds.
TEST(ServerIntegrationTest, JournalRecordsLifecycleAndServesIt) {
  const TetraMesh mesh = MakeBox(6);
  obs::EventJournal journal(128);
  ServerOptions options;
  options.metrics_port = 0;
  options.journal = &journal;
  ServerFixture fixture(MakeDeformingBackend(mesh, "journal_life.oct2d"),
                        options);
  const uint16_t metrics_port = fixture.server().metrics_port();
  ASSERT_NE(metrics_port, 0);

  {
    auto remote = MustConnect(fixture.port());
    auto pinned = remote->PinEpoch(0);  // pin the initial epoch
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    EXPECT_EQ(pinned.Value().epoch, 1u);
    // Eight steps push unpinned epochs out of the window (spill) and
    // past the history cap (evict); the pin itself stays resident.
    for (int s = 0; s < 8; ++s) {
      ASSERT_TRUE(remote->Step(1).ok());
    }
    ASSERT_TRUE(remote->UnpinEpoch(1).ok());

    // Quiescent (every OCTP call above is synchronous): the endpoint
    // must serve the ring verbatim.
    const std::string response = HttpGet(metrics_port, "/journal");
    ASSERT_NE(response.find("HTTP/1.0 200"), std::string::npos)
        << response.substr(0, 64);
    ASSERT_NE(response.find("Content-Type: application/json"),
              std::string::npos);
    const std::string body = response.substr(response.find("\r\n\r\n") + 4);
    EXPECT_EQ(body, journal.RenderJson());

    // The lifecycle reads in causal order: the session opened before it
    // pinned, pins precede steps, a step precedes its publication, and
    // spill precedes the eviction of the spilled epoch.
    size_t at = 0;
    for (const char* kind :
         {"\"kind\":\"session_opened\"", "\"kind\":\"epoch_pinned\"",
          "\"kind\":\"step_applied\"", "\"kind\":\"epoch_published\"",
          "\"kind\":\"epoch_spilled\"", "\"kind\":\"epoch_evicted\"",
          "\"kind\":\"epoch_unpinned\""}) {
      const size_t found = body.find(kind, at);
      ASSERT_NE(found, std::string::npos) << kind << " after " << at;
      at = found;
    }

    // /metrics counts the same journal.
    const std::string metrics = HttpGet(metrics_port, "/metrics");
    const std::string metrics_body =
        metrics.substr(metrics.find("\r\n\r\n") + 4);
    EXPECT_EQ(MetricValue(metrics_body, "octopus_journal_events_total"),
              static_cast<double>(journal.total_emitted()));
    EXPECT_EQ(MetricValue(metrics_body, "octopus_journal_ring_events"),
              static_cast<double>(journal.size()));
  }
  fixture.StopAndJoin();

  // The close and the drain made the journal too, with seq gapless.
  std::vector<obs::JournalEvent> events;
  journal.Snapshot(&events);
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1) << i;
  }
  bool saw_closed = false, saw_drain_began = false, saw_drain_ended = false;
  for (const obs::JournalEvent& event : events) {
    saw_closed |= event.kind == obs::EventKind::kSessionClosed;
    saw_drain_began |= event.kind == obs::EventKind::kDrainBegan;
    saw_drain_ended |= event.kind == obs::EventKind::kDrainEnded;
  }
  EXPECT_TRUE(saw_closed);
  EXPECT_TRUE(saw_drain_began);
  EXPECT_TRUE(saw_drain_ended);
}

// A spilled epoch is read back once per batch on both backends: the
// reload is journaled as `epoch_reloaded`, counted by
// `octopus_epoch_reload_pages_total` (scrape and STATS alike), and a
// sidecar truncated under the pinned epoch answers a typed EPOCH_GONE
// naming the epoch while current-epoch requests keep answering.
TEST(ServerIntegrationTest, SpilledEpochReloadIsObservableAndFailsTyped) {
  const TetraMesh mesh = MakeBox(6);
  for (const bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "paged" : "in memory");
    const std::string stem = ::testing::TempDir() + "/reload_server_" +
                             (paged ? "p" : "m");
    std::unique_ptr<VersionedBackend> backend;
    if (paged) {
      ASSERT_TRUE(SaveSnapshot(mesh, stem + ".oct2",
                               storage::SnapshotOptions{.page_bytes = 1024})
                      .ok());
      auto opened = VersionedBackend::OpenSnapshot(stem + ".oct2",
                                                   /*pool_bytes=*/64 * 1024,
                                                   /*threads=*/1);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      backend = opened.MoveValue();
    } else {
      backend = VersionedBackend::FromMesh(mesh, 1);
    }
    server::EpochRetentionOptions retention;
    retention.retention_epochs = 2;
    retention.history_epochs = 4;
    retention.spill_path = stem + ".oct2d";
    ASSERT_TRUE(backend->ConfigureRetention(retention).ok());
    DeformerSpec spec;
    spec.kind = DeformerKind::kRandom;
    spec.amplitude = 0.02f;
    spec.seed = 2026;
    ASSERT_TRUE(backend->BindDeformer(spec).ok());

    obs::EventJournal journal(256);
    ServerOptions options;
    options.metrics_port = 0;
    options.journal = &journal;
    ServerFixture fixture(std::move(backend), options);
    auto remote = MustConnect(fixture.port());
    // Epoch 2 (step 1): paged, epoch 1 equals the snapshot and spills
    // nothing.
    ASSERT_TRUE(remote->Step(1).ok());
    ASSERT_TRUE(remote->PinEpoch(0).ok());
    for (int s = 0; s < 4; ++s) ASSERT_TRUE(remote->Step(1).ok());

    QueryGenerator gen(mesh);
    Rng rng(77);
    const std::vector<AABB> boxes = gen.MakeQueries(&rng, 4, 0.01, 0.05);
    auto historical = remote->ExecuteBatch(boxes, /*epoch=*/2);
    ASSERT_TRUE(historical.ok()) << historical.status().ToString();
    EXPECT_EQ(historical.Value().results.epoch.epoch, 2u);

    std::vector<obs::JournalEvent> events;
    journal.Snapshot(&events);
    uint64_t reloaded_pages = 0;
    for (const obs::JournalEvent& event : events) {
      if (event.kind != obs::EventKind::kEpochReloaded) continue;
      EXPECT_EQ(event.epoch, 2u);
      reloaded_pages += event.a;
    }
    EXPECT_GT(reloaded_pages, 0u);
    auto stats = remote->FetchStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sample(stats, "octopus_epoch_reload_pages_total"),
              static_cast<double>(reloaded_pages));
    const std::string scrape =
        HttpGet(fixture.server().metrics_port(), "/metrics");
    EXPECT_EQ(MetricValue(scrape.substr(scrape.find("\r\n\r\n") + 4),
                          "octopus_epoch_reload_pages_total"),
              static_cast<double>(reloaded_pages));

    // Every batch at epoch 2 reads the sidecar again: cut the file.
    ASSERT_EQ(::truncate(retention.spill_path.c_str(), 1024), 0);
    auto gone = remote->ExecuteBatch(boxes, /*epoch=*/2);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), Status::Code::kNotFound);
    EXPECT_NE(gone.status().message().find("EPOCH_GONE"), std::string::npos)
        << gone.status().ToString();
    EXPECT_NE(gone.status().message().find("epoch 2 "), std::string::npos)
        << gone.status().ToString();
    auto current = remote->ExecuteBatch(boxes);
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    EXPECT_EQ(current.Value().results.epoch.epoch, 6u);
    fixture.StopAndJoin();
    std::remove((stem + ".oct2").c_str());
  }
}

// Historical requests wait in the one coalescing queue and count
// against the one backlog bound: once they fill it, the next request
// is OVERLOADED whatever its epoch, and the parked ones are still
// answered, each at its own epoch, by the graceful drain.
TEST(ServerIntegrationTest, HistoricalRequestsCountAgainstTheBacklogBound) {
  const TetraMesh mesh = MakeBox(6);
  auto backend = VersionedBackend::FromMesh(mesh, 1);
  DeformerSpec spec;
  spec.kind = DeformerKind::kRandom;
  spec.amplitude = 0.02f;
  spec.seed = 31;
  ASSERT_TRUE(backend->BindDeformer(spec).ok());
  backend->AdvanceStep();  // epochs 1 and 2 (current)
  ServerOptions options;
  options.scheduler.window_nanos = 60'000'000'000;  // park requests
  options.scheduler.max_batch_queries = 1000;
  options.scheduler.max_pending_queries = 8;
  ServerFixture fixture(std::move(backend), options);

  QueryGenerator gen(mesh);
  Rng rng(21);
  const std::vector<AABB> queries_1 = gen.MakeQueries(&rng, 4, 0.01, 0.02);
  const std::vector<AABB> queries_2 = gen.MakeQueries(&rng, 4, 0.01, 0.02);
  const std::vector<AABB> one = gen.MakeQueries(&rng, 1, 0.01, 0.02);
  auto client_1 = MustConnect(fixture.port());
  auto client_2 = MustConnect(fixture.port());
  auto probe = MustConnect(fixture.port());

  auto parked_1 = std::async(std::launch::async, [&] {
    return client_1->ExecuteBatch(queries_1, /*epoch=*/1);
  });
  auto parked_2 = std::async(std::launch::async, [&] {
    return client_2->ExecuteBatch(queries_2, /*epoch=*/2);
  });
  while (true) {
    auto stats = probe->FetchStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (Sample(stats, "octopus_queries_received_total") >= 8.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto historical = probe->ExecuteBatch(one, /*epoch=*/1);
  ASSERT_FALSE(historical.ok());
  EXPECT_EQ(historical.status().code(), Status::Code::kResourceExhausted)
      << historical.status().ToString();
  auto current = probe->ExecuteBatch(one);
  ASSERT_FALSE(current.ok());
  EXPECT_EQ(current.status().code(), Status::Code::kResourceExhausted)
      << current.status().ToString();
  auto stats = probe->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sample(stats, "octopus_queries_rejected_total"), 2.0);
  EXPECT_EQ(Sample(stats, "octopus_batches_executed_total"), 0.0);

  fixture.StopAndJoin();
  auto result_1 = parked_1.get();
  auto result_2 = parked_2.get();
  ASSERT_TRUE(result_1.ok()) << result_1.status().ToString();
  ASSERT_TRUE(result_2.ok()) << result_2.status().ToString();
  EXPECT_EQ(result_1.Value().results.epoch.epoch, 1u);
  EXPECT_EQ(result_2.Value().results.epoch.epoch, 2u);
  EXPECT_EQ(result_1.Value().stats.batch_requests, 1u);
  EXPECT_EQ(result_2.Value().stats.batch_requests, 1u);
}

// Two connections reading the same spilled epoch share one batch, so
// the epoch is read back from the sidecar once: exactly the pages (and
// the one `epoch_reloaded` event) of a request that reads it alone.
TEST(ServerIntegrationTest, SameEpochHistoricalRequestsShareOneReload) {
  const TetraMesh mesh = MakeBox(6);
  const std::string stem = ::testing::TempDir() + "/shared_reload";
  ASSERT_TRUE(SaveSnapshot(mesh, stem + ".oct2",
                           storage::SnapshotOptions{.page_bytes = 1024})
                  .ok());
  auto opened = VersionedBackend::OpenSnapshot(
      stem + ".oct2", /*pool_bytes=*/64 * 1024, /*threads=*/1);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<VersionedBackend> backend = opened.MoveValue();
  server::EpochRetentionOptions retention;
  retention.retention_epochs = 2;
  retention.history_epochs = 4;
  retention.spill_path = stem + ".oct2d";
  ASSERT_TRUE(backend->ConfigureRetention(retention).ok());
  DeformerSpec spec;
  spec.kind = DeformerKind::kRandom;
  spec.amplitude = 0.02f;
  spec.seed = 2026;
  ASSERT_TRUE(backend->BindDeformer(spec).ok());

  obs::EventJournal journal(256);
  ServerOptions options;
  options.journal = &journal;
  // Only the size trigger fires: a batch is exactly 8 queries.
  options.scheduler.window_nanos = 60'000'000'000;
  options.scheduler.max_batch_queries = 8;
  ServerFixture fixture(std::move(backend), options);
  auto remote_a = MustConnect(fixture.port());
  auto remote_b = MustConnect(fixture.port());
  ASSERT_TRUE(remote_a->Step(1).ok());
  ASSERT_TRUE(remote_a->PinEpoch(0).ok());  // epoch 2, spilled below
  for (int s = 0; s < 4; ++s) ASSERT_TRUE(remote_a->Step(1).ok());

  QueryGenerator gen(mesh);
  Rng rng(5);
  const std::vector<AABB> boxes_a = gen.MakeQueries(&rng, 4, 0.01, 0.05);
  const std::vector<AABB> boxes_b = gen.MakeQueries(&rng, 4, 0.01, 0.05);
  std::vector<AABB> both = boxes_a;
  both.insert(both.end(), boxes_b.begin(), boxes_b.end());

  auto reload_pages = [&] {
    auto stats = remote_a->FetchStats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return Sample(stats, "octopus_epoch_reload_pages_total");
  };
  auto reload_events = [&] {
    std::vector<obs::JournalEvent> events;
    journal.Snapshot(&events);
    size_t n = 0;
    for (const obs::JournalEvent& event : events) {
      n += event.kind == obs::EventKind::kEpochReloaded && event.epoch == 2;
    }
    return n;
  };

  // Reference: one request reads epoch 2 alone.
  auto alone = remote_a->ExecuteBatch(both, /*epoch=*/2);
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  const double epoch_pages = reload_pages();
  ASSERT_GT(epoch_pages, 0.0);
  ASSERT_EQ(reload_events(), 1u);

  auto result_a = std::async(std::launch::async, [&] {
    return remote_a->ExecuteBatch(boxes_a, /*epoch=*/2);
  });
  auto result_b = std::async(std::launch::async, [&] {
    return remote_b->ExecuteBatch(boxes_b, /*epoch=*/2);
  });
  for (auto* result : {&result_a, &result_b}) {
    auto got = result->get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.Value().results.epoch.epoch, 2u);
    EXPECT_EQ(got.Value().stats.batch_requests, 2u);
    EXPECT_EQ(got.Value().stats.batch_queries, 8u);
  }
  EXPECT_EQ(reload_pages(), 2 * epoch_pages);
  EXPECT_EQ(reload_events(), 2u);
  fixture.StopAndJoin();
  std::remove((stem + ".oct2").c_str());
}

// /epochs must be counter-equal with the EpochStore's own view at a
// quiescent point — same retention ring, two read paths.
TEST(ServerIntegrationTest, EpochsEndpointMatchesTheStoreView) {
  const TetraMesh mesh = MakeBox(6);
  auto backend = MakeDeformingBackend(mesh, "epochs_endpoint.oct2d");
  VersionedBackend* raw = backend.get();
  ServerOptions options;
  options.metrics_port = 0;
  ServerFixture fixture(std::move(backend), options);
  auto remote = MustConnect(fixture.port());
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(remote->Step(1).ok());
  }

  const std::string response =
      HttpGet(fixture.server().metrics_port(), "/epochs");
  ASSERT_NE(response.find("HTTP/1.0 200"), std::string::npos)
      << response.substr(0, 64);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);

  const server::EpochStoreView view = raw->epoch_store()->View();
  EXPECT_GT(view.evicted_total, 0u);  // the workload actually churned
  EXPECT_GT(view.spill_pages_written, 0u);
  EXPECT_NE(body.find("\"dynamic\":true"), std::string::npos);
  EXPECT_NE(body.find("\"current_epoch\":7"), std::string::npos);
  EXPECT_NE(body.find("\"current_step\":6"), std::string::npos);
  EXPECT_NE(body.find("\"resident_bytes\":" +
                      std::to_string(view.resident_bytes)),
            std::string::npos);
  EXPECT_NE(body.find("\"evicted_total\":" +
                      std::to_string(view.evicted_total)),
            std::string::npos);
  EXPECT_NE(body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(body.find("\"pages_written\":" +
                      std::to_string(view.spill_pages_written)),
            std::string::npos);
  EXPECT_NE(body.find("\"bytes_written\":" +
                      std::to_string(view.spill_bytes_written)),
            std::string::npos);
  // One JSON entry per retained epoch, no more, no fewer.
  size_t entry_count = 0;
  for (size_t at = body.find("{\"epoch\":"); at != std::string::npos;
       at = body.find("{\"epoch\":", at + 1)) {
    ++entry_count;
  }
  EXPECT_EQ(entry_count, view.entries.size());
}

// A static backend still answers /epochs (one implicit epoch) and
// /readyz (always ready — nothing can stall).
TEST(ServerIntegrationTest, StaticBackendIntrospectionEndpoints) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.metrics_port = 0;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  const uint16_t metrics_port = fixture.server().metrics_port();

  const std::string health = HttpGet(metrics_port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string epochs = HttpGet(metrics_port, "/epochs");
  EXPECT_NE(epochs.find("\"dynamic\":false"), std::string::npos);
  EXPECT_NE(epochs.find("\"entries\":[]"), std::string::npos);

  const std::string ready = HttpGet(metrics_port, "/readyz");
  EXPECT_NE(ready.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(ready.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(ready.find("\"publish_lag_seconds\":null"), std::string::npos);

  // No journal configured: the endpoint answers an empty document.
  const std::string journal = HttpGet(metrics_port, "/journal");
  EXPECT_NE(journal.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(journal.find("{\"total\":0,\"capacity\":0,\"events\":[]}"),
            std::string::npos);

  // Unknown paths get the route hint.
  const std::string missing = HttpGet(metrics_port, "/epoch");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_NE(missing.find("try /metrics /healthz /readyz /epochs /journal"),
            std::string::npos);
}

// --ready-lag-ms: a 1 ns bound is stale by the time any scrape lands,
// so /readyz must answer 503 with the stall reason.
TEST(ServerIntegrationTest, ReadyzFlips503WhenPublicationStalls) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.metrics_port = 0;
  options.ready_max_publish_lag_nanos = 1;
  ServerFixture fixture(MakeDeformingBackend(mesh, "readyz_lag.oct2d"),
                        options);
  const std::string ready =
      HttpGet(fixture.server().metrics_port(), "/readyz");
  EXPECT_NE(ready.find("HTTP/1.0 503 Service Unavailable"),
            std::string::npos)
      << ready.substr(0, 64);
  EXPECT_NE(ready.find("\"ready\":false"), std::string::npos);
  EXPECT_NE(ready.find("epoch publication stalled"), std::string::npos);
}

// v6 trace propagation end to end: the RESULT's stats block carries the
// server's flight-recorder id, the client span records it, and the two
// sides merge into one nested Chrome trace.
TEST(ServerIntegrationTest, ResultCarriesTraceIdAndClientSpansRecordIt) {
  const TetraMesh mesh = MakeBox(4);
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1));
  auto remote = MustConnect(fixture.port());
  remote->set_record_spans(true);
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};

  auto first = remote->ExecuteBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.Value().stats.trace_id, 1u);
  auto second = remote->ExecuteBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.Value().stats.trace_id, 2u);

  ASSERT_EQ(remote->spans().size(), 2u);
  const obs::ClientCallSpan& span = remote->spans()[0];
  EXPECT_EQ(span.span_id, 1u);
  EXPECT_EQ(span.server_trace_id, 1u);
  EXPECT_EQ(span.queries, queries.size());
  EXPECT_GT(span.start_unix_nanos, 0);
  EXPECT_GE(span.send_nanos, 0);
  EXPECT_GE(span.wait_nanos, 0);
  EXPECT_GE(span.recv_nanos, 0);
  EXPECT_GT(span.send_nanos + span.wait_nanos + span.recv_nanos, 0);
  EXPECT_EQ(remote->spans()[1].span_id, 2u);
  EXPECT_EQ(remote->spans()[1].server_trace_id, 2u);

  // The merged rendering joins on those ids: both client call spans and
  // both matched server request spans appear.
  auto dump = remote->FetchTraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const std::string merged =
      obs::MergedChromeTraceJson(dump.Value().records, remote->spans());
  EXPECT_NE(merged.find("\"name\":\"call\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"request\",\"ph\":\"X\",\"pid\":2"),
            std::string::npos);
  EXPECT_NE(merged.find("\"server_trace_id\":2"), std::string::npos);
}

// An untraced server echoes trace_id 0 — the client must not invent a
// join key where none exists.
TEST(ServerIntegrationTest, UntracedServerEchoesZeroTraceId) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.trace_ring_slots = 0;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);
  auto remote = MustConnect(fixture.port());
  remote->set_record_spans(true);
  const std::vector<AABB> queries = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  auto result = remote->ExecuteBatch(queries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.Value().stats.trace_id, 0u);
  ASSERT_EQ(remote->spans().size(), 1u);
  EXPECT_EQ(remote->spans()[0].server_trace_id, 0u);
  EXPECT_EQ(remote->spans()[0].span_id, 1u);
}

// --- Multi-threaded front end (io_threads > 1) ---

// The single-loop tests above all run with the default io_threads = 1;
// this block repeats the load-bearing semantics with sessions sharded
// across four epoll threads: per-client result integrity, cross-
// connection coalescing through the shared scheduler, and the merged
// loop-stall snapshot.
TEST(ServerIntegrationTest, MultiThreadedClientsGetTheirOwnResults) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 5;
  constexpr int kQueriesPerRequest = 10;

  // Break-even near 1% selectivity: the 0.1-2% boxes route both ways.
  const TetraMesh mesh = MakeBox(12);
  ServerOptions options;
  options.io_threads = 4;
  options.scheduler.window_nanos = 2'000'000;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = RemoteClient::Connect("127.0.0.1", fixture.port());
      if (!connected.ok()) {
        failures[c] = connected.status().ToString();
        return;
      }
      QueryGenerator gen(mesh);
      Rng rng(4000 + c);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::vector<AABB> queries =
            gen.MakeQueries(&rng, kQueriesPerRequest, 0.001, 0.02);
        auto result = connected.Value()->ExecuteBatch(queries);
        if (!result.ok()) {
          failures[c] = result.status().ToString();
          return;
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          if (Sorted(result.Value().results.per_query[q]) !=
              BruteForceRangeQuery(mesh, queries[q])) {
            failures[c] = "client " + std::to_string(c) +
                          " got wrong results for query " +
                          std::to_string(q);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  auto stats_client = MustConnect(fixture.port());
  auto stats = stats_client->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const double total =
      double{kClients} * kRequestsPerClient * kQueriesPerRequest;
  const double batches = Sample(stats, "octopus_batches_executed_total");
  EXPECT_EQ(Sample(stats, "octopus_queries_received_total"), total);
  EXPECT_EQ(Sample(stats, "octopus_queries_executed_total"), total);
  EXPECT_EQ(Sample(stats, "octopus_queries_rejected_total"), 0.0);
  EXPECT_EQ(Sample(stats, "octopus_queries_routed_octopus_total") +
                Sample(stats, "octopus_queries_routed_scan_total"),
            total);
  EXPECT_GT(Sample(stats, "octopus_queries_routed_octopus_total"), 0.0);
  EXPECT_GT(Sample(stats, "octopus_queries_routed_scan_total"), 0.0);
  // Sessions live on different epoll threads, but the scheduler is
  // shared: requests still coalesce across connections.
  EXPECT_LE(batches, double{kClients} * kRequestsPerClient);
  EXPECT_GE(total / batches, static_cast<double>(kQueriesPerRequest));

  fixture.StopAndJoin();
  // The snapshot path merges every I/O thread's stall shard; with this
  // much traffic at least one shard sampled.
  const server::ServerMetrics snapshot = fixture.server().MetricsSnapshot();
  EXPECT_GE(snapshot.loop_stall.count(), 1u);
  EXPECT_EQ(snapshot.connections_active(), 0u);
  EXPECT_LE(snapshot.queries_executed,
            snapshot.queries_received - snapshot.queries_rejected);
}

// Admission control under sharded I/O: the rejecting session and the
// admitted one live on different epoll threads, yet both observe the
// same scheduler backlog — the overload answer is typed, the rejected
// connection stays usable, and the parked request survives a drain.
TEST(ServerIntegrationTest, OverloadIsExplicitAcrossIoThreads) {
  const TetraMesh mesh = MakeBox(6);
  ServerOptions options;
  options.io_threads = 4;
  options.scheduler.window_nanos = 60'000'000'000;  // park requests
  options.scheduler.max_batch_queries = 1000;
  options.scheduler.max_pending_queries = 8;
  ServerFixture fixture(VersionedBackend::FromMesh(mesh, 1), options);

  QueryGenerator gen(mesh);
  Rng rng(41);
  const std::vector<AABB> queries_a = gen.MakeQueries(&rng, 6, 0.01, 0.02);
  const std::vector<AABB> queries_b = gen.MakeQueries(&rng, 6, 0.01, 0.02);

  auto client_a = MustConnect(fixture.port());
  auto client_b = MustConnect(fixture.port());

  Result<client::RemoteBatchResult> result_a =
      Status::IOError("not run");
  std::thread thread_a([&] {
    result_a = client_a->ExecuteBatch(queries_a);
  });
  while (true) {
    auto stats = client_b->FetchStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (Sample(stats, "octopus_queries_received_total") >=
        static_cast<double>(queries_a.size())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto result_b = client_b->ExecuteBatch(queries_b);
  ASSERT_FALSE(result_b.ok());
  EXPECT_EQ(result_b.status().code(),
            Status::Code::kResourceExhausted)
      << result_b.status().ToString();

  auto stats_after = client_b->FetchStats();
  ASSERT_TRUE(stats_after.ok()) << stats_after.status().ToString();
  EXPECT_EQ(Sample(stats_after, "octopus_queries_rejected_total"),
            static_cast<double>(queries_b.size()));

  fixture.StopAndJoin();
  thread_a.join();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  for (size_t q = 0; q < queries_a.size(); ++q) {
    EXPECT_EQ(Sorted(result_a.Value().results.per_query[q]),
              BruteForceRangeQuery(mesh, queries_a[q]));
  }
}

// A dead session's pins die with it, whichever epoll thread owned the
// session: eight clients pin the initial epoch and vanish without
// UNPIN; the owning threads release every pin, draining the
// sessions-pinned gauge back to zero.
TEST(ServerIntegrationTest, PinsDieWithSessionsAcrossIoThreads) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.io_threads = 4;
  options.metrics_port = 0;
  ServerFixture fixture(MakeDeformingBackend(mesh, "pins_mt.oct2d"),
                        options);
  const uint16_t metrics_port = fixture.server().metrics_port();
  ASSERT_NE(metrics_port, 0);

  std::vector<std::unique_ptr<RemoteClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(MustConnect(fixture.port()));
    auto pinned = clients.back()->PinEpoch(0);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  }
  {
    const std::string response = HttpGet(metrics_port, "/metrics");
    const std::string body = response.substr(response.find("\r\n\r\n") + 4);
    EXPECT_EQ(MetricValue(body, "octopus_sessions_pinned_epochs"), 8.0);
    EXPECT_EQ(MetricValue(body, "octopus_io_threads"), 4.0);
  }

  clients.clear();  // abrupt closes: no UNPIN ever sent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double pins = -1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string response = HttpGet(metrics_port, "/metrics");
    const std::string body = response.substr(response.find("\r\n\r\n") + 4);
    pins = MetricValue(body, "octopus_sessions_pinned_epochs");
    if (pins == 0.0 &&
        MetricValue(body, "octopus_connections_active") == 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pins, 0.0);
}

// Clients hammering connect/query while Stop() runs must not crash,
// hang, or leak sessions: whatever the race admitted is drained and
// accounted for (accepted == closed once the server exits).
TEST(ServerIntegrationTest, ConcurrentConnectsSurviveStop) {
  const TetraMesh mesh = MakeBox(4);
  ServerOptions options;
  options.io_threads = 4;
  auto fixture = std::make_unique<ServerFixture>(
      VersionedBackend::FromMesh(mesh, 1), options);
  const uint16_t port = fixture->port();

  std::atomic<bool> stop_dialing{false};
  std::vector<std::thread> dialers;
  for (int t = 0; t < 4; ++t) {
    dialers.emplace_back([&] {
      const std::vector<AABB> queries = {
          AABB(Vec3(0, 0, 0), Vec3(0.5f, 0.5f, 0.5f))};
      while (!stop_dialing.load(std::memory_order_relaxed)) {
        auto connected = RemoteClient::Connect("127.0.0.1", port);
        if (!connected.ok()) break;  // listener is gone
        // Failures are expected once the drain begins; only crashes
        // and hangs are bugs here.
        (void)connected.Value()->ExecuteBatch(queries);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture->StopAndJoin();  // races the dialers by design
  stop_dialing.store(true, std::memory_order_relaxed);
  for (auto& t : dialers) t.join();

  const server::ServerMetrics metrics = fixture->server().MetricsSnapshot();
  EXPECT_EQ(metrics.connections_active(), 0u);
  EXPECT_EQ(metrics.connections_accepted.load(),
            metrics.connections_closed.load());
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBounded) {
  server::LatencyHistogram histogram;
  EXPECT_EQ(histogram.PercentileNanos(0.5), 0u);
  for (uint64_t nanos : {100u, 200u, 300u, 400u, 50'000u}) {
    histogram.Record(nanos);
  }
  EXPECT_EQ(histogram.count(), 5u);
  const uint64_t p50 = histogram.PercentileNanos(0.50);
  const uint64_t p95 = histogram.PercentileNanos(0.95);
  const uint64_t p99 = histogram.PercentileNanos(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucketed: within 2x of the true value, capped at the max.
  EXPECT_GE(p50, 100u);
  EXPECT_LE(p50, 800u);
  EXPECT_EQ(p99, 50'000u);
}

}  // namespace
}  // namespace octopus
