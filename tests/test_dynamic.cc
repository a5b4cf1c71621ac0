// Copyright 2026 The OCTOPUS Reproduction Authors
// The dynamic dimension, end to end: epoch-versioned backends serving
// queries while a deformer advances the mesh. Copy-on-write epoch
// semantics (pinned epochs never change), OCT2 delta pages (a step
// rewrites only displaced-position pages), K-step epoch parity between
// remote execution and the in-process engine on the same deformer
// trajectory — for both backends and 1/4 threads — and torn-read
// freedom under a stepper thread racing query execution.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/remote_client.h"
#include "engine/query_engine.h"
#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_io.h"
#include "octopus/query_executor.h"
#include "server/server.h"
#include "server/versioned_backend.h"
#include "sim/deformer.h"
#include "sim/deformer_spec.h"
#include "sim/random_deformer.h"
#include "sim/workload.h"
#include "storage/delta_overlay.h"
#include "test_util.h"

namespace octopus {
namespace {

using client::RemoteClient;
using server::QueryServer;
using server::ServerOptions;
using server::VersionedBackend;
using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

/// A spec both sides of a parity check can reconstruct bit-identically
/// (explicit amplitude: nobody measures the mesh).
DeformerSpec ParitySpec(DeformerKind kind) {
  DeformerSpec spec;
  spec.kind = kind;
  spec.amplitude = 0.02f;  // box meshes have ~1/n edges; safe for n <= 10
  spec.seed = 2026;
  return spec;
}

class ServerFixture {
 public:
  explicit ServerFixture(std::unique_ptr<VersionedBackend> backend,
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

// --- Copy-on-write epoch semantics ---

/// A pinned epoch answers bit-identically however far the mesh moves on
/// (even after it spilled to the sidecar); published ids start at 1;
/// a second deformer is refused.
void RunPinnedEpochImmutability(bool paged) {
  const TetraMesh mesh = MakeBox(5);
  std::unique_ptr<VersionedBackend> backend;
  std::string path;
  if (paged) {
    path = ::testing::TempDir() + "/immutable.oct2";
    ASSERT_TRUE(SaveSnapshot(mesh, path,
                             storage::SnapshotOptions{.page_bytes = 256})
                    .ok());
    auto opened =
        VersionedBackend::OpenSnapshot(path, /*pool_bytes=*/64 * 1024, 1);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    backend = opened.MoveValue();
  } else {
    backend = VersionedBackend::FromMesh(mesh, 1);
  }
  EXPECT_FALSE(backend->dynamic());
  EXPECT_EQ(backend->CurrentEpoch(), engine::EpochInfo{});  // static

  server::EpochRetentionOptions retention;
  retention.retention_epochs = 2;
  retention.spill_path = ::testing::TempDir() + "/immutable_" +
                         (paged ? "p" : "m") + ".oct2d";
  ASSERT_TRUE(backend->ConfigureRetention(retention).ok());
  DeformerSpec spec = ParitySpec(DeformerKind::kRandom);
  spec.amplitude = 0.08f;  // a third of an edge: answers must change
  ASSERT_TRUE(backend->BindDeformer(spec).ok());
  ASSERT_TRUE(backend->dynamic());
  EXPECT_EQ(backend->CurrentEpoch(), (engine::EpochInfo{1, 0}));
  auto pinned = backend->PinEpoch(0);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned.Value(), (engine::EpochInfo{1, 0}));

  QueryGenerator gen(mesh);
  Rng rng(0x1A1);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 12, 0.02, 0.1);
  engine::QueryBatchResult before;
  PhaseStats stats;
  backend->Execute(queries, &before, &stats);
  EXPECT_EQ(before.epoch, (engine::EpochInfo{1, 0}));

  EXPECT_EQ(backend->AdvanceStep(), (engine::EpochInfo{2, 1}));
  EXPECT_EQ(backend->CurrentEpoch(), (engine::EpochInfo{2, 1}));
  for (int s = 0; s < 4; ++s) backend->AdvanceStep();

  // The mesh really moved: the current epoch answers differently.
  engine::QueryBatchResult current;
  backend->Execute(queries, &current, &stats);
  EXPECT_EQ(current.epoch, (engine::EpochInfo{6, 5}));
  EXPECT_NE(current.per_query, before.per_query);

  // The pinned epoch, spilled by now, answers exactly as it did while
  // it was current: copy-on-write, not in-place mutation.
  EXPECT_GT(backend->epoch_store()->spilled_epochs(), 0u);
  engine::QueryBatchResult replay;
  ASSERT_TRUE(backend->ExecuteAt(1, queries, &replay, &stats).ok());
  EXPECT_EQ(replay.epoch, (engine::EpochInfo{1, 0}));
  EXPECT_EQ(replay.per_query, before.per_query);

  EXPECT_FALSE(backend->BindDeformer(ParitySpec(DeformerKind::kWave)).ok());
  backend.reset();
  if (!path.empty()) std::remove(path.c_str());
}

TEST(VersionedBackendTest, PinnedEpochsAreImmutableAcrossStepsInMemory) {
  RunPinnedEpochImmutability(/*paged=*/false);
}

TEST(VersionedBackendTest, PinnedEpochsAreImmutableAcrossStepsPaged) {
  RunPinnedEpochImmutability(/*paged=*/true);
}

// --- OCT2 delta pages ---

TEST(DeltaOverlayTest, StepRewritesOnlyDisplacedPositionPages) {
  const TetraMesh mesh = MakeBox(6);
  const std::string path = ::testing::TempDir() + "/overlay.oct2";
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           storage::SnapshotOptions{.page_bytes = 256})
                  .ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  const storage::SnapshotHeader& h = header.Value();
  const size_t per_page = h.PositionsPerPage();
  const uint64_t position_pages = storage::PagesForEntries(
      h.num_vertices, sizeof(Vec3), h.page_bytes);
  ASSERT_GT(position_pages, 2u);

  // Step 1: displace exactly one vertex -> exactly one page rewritten.
  std::vector<Vec3> base = mesh.positions();
  std::vector<Vec3> new_positions = base;
  const size_t victim = per_page + 1;  // lives in position page 1
  new_positions[victim] += Vec3(0.5f, 0, 0);
  size_t rewritten = 0;
  auto overlay1 = storage::PositionOverlay::BuildNext(
      h.num_vertices, h.page_bytes, nullptr, base, new_positions,
      &rewritten);
  EXPECT_EQ(rewritten, 1u);
  EXPECT_EQ(overlay1->resident_pages(), 1u);
  EXPECT_EQ(overlay1->Lookup(0), nullptr);
  ASSERT_NE(overlay1->Lookup(1), nullptr);
  // The rewritten page carries the OCT2 serialization of the new state.
  Vec3 read_back;
  std::memcpy(&read_back,
              overlay1->Lookup(1) + (victim % per_page) * sizeof(Vec3),
              sizeof(Vec3));
  EXPECT_EQ(read_back.x, new_positions[victim].x);

  // Step 2: displace a vertex of page 0 -> page 1's bytes are shared
  // with epoch 1 (structural copy-on-write), page 0 is fresh.
  std::vector<Vec3> step2 = new_positions;
  step2[0] += Vec3(0, 0.25f, 0);
  auto overlay2 = storage::PositionOverlay::BuildNext(
      h.num_vertices, h.page_bytes, overlay1.get(), base, step2,
      &rewritten);
  EXPECT_EQ(rewritten, 1u);
  EXPECT_EQ(overlay2->resident_pages(), 2u);
  EXPECT_EQ(overlay2->Lookup(1), overlay1->Lookup(1));  // shared bytes
  ASSERT_NE(overlay2->Lookup(0), nullptr);
  std::remove(path.c_str());
}

// --- K-step epoch parity: remote vs in-process, both backends ---

/// In-process reference: the stale index is built at step 0 and the
/// same deformer trajectory advances the mesh in place.
struct InProcessReference {
  explicit InProcessReference(const TetraMesh& base, int threads)
      : mesh(base), engine(engine::QueryEngineOptions{.threads = threads}) {
    octopus.Build(mesh);
    auto deformer_result = MakeDeformer(ParitySpec(DeformerKind::kRandom));
    deformer = deformer_result.MoveValue();
    deformer->Bind(mesh);
  }

  void StepTo(uint32_t step) {
    while (current_step < step) {
      ++current_step;
      deformer->ApplyStep(static_cast<int>(current_step), &mesh);
    }
  }

  TetraMesh mesh;
  Octopus octopus;
  engine::QueryEngine engine;
  std::unique_ptr<Deformer> deformer;
  uint32_t current_step = 0;
};

void RunEpochParity(bool paged, int threads) {
  constexpr int kSteps = 4;
  // Break-even near 1% selectivity: the route sends the 0.5-3% boxes
  // both ways, so the server crawls and scans at every epoch.
  const TetraMesh mesh = MakeBox(12);
  const DeformerSpec spec = ParitySpec(DeformerKind::kRandom);

  std::unique_ptr<VersionedBackend> backend;
  std::string path;
  if (paged) {
    path = ::testing::TempDir() + "/dynamic_parity_" +
           std::to_string(threads) + ".oct2";
    ASSERT_TRUE(SaveSnapshot(mesh, path,
                             storage::SnapshotOptions{.page_bytes = 1024})
                    .ok());
    auto opened =
        VersionedBackend::OpenSnapshot(path, /*pool_bytes=*/64 * 1024,
                                       threads);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    backend = opened.MoveValue();
  } else {
    backend = VersionedBackend::FromMesh(mesh, threads);
  }
  ASSERT_TRUE(backend->BindDeformer(spec).ok());

  ServerFixture fixture(std::move(backend));
  auto remote = MustConnect(fixture.port());
  EXPECT_EQ(remote->server_info().dynamic, 1);

  InProcessReference reference(mesh, /*threads=*/1);
  QueryGenerator gen(mesh);
  Rng rng(0xD1'4A11C + threads);

  // Both routes must run over the whole trajectory.
  size_t crawl_edges = 0;
  size_t scan_queries = 0;
  size_t queries_run = 0;
  for (uint32_t step = 0; step <= kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) {
      auto info = remote->Step(1);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(info.Value().step, step);
      EXPECT_EQ(info.Value().epoch, step + 1);  // ids start at 1
      EXPECT_EQ(info.Value().dynamic, 1);
      EXPECT_EQ(info.Value().deformer_kind,
                static_cast<uint8_t>(DeformerKind::kRandom));
      if (paged) {
        // A random deformer displaces every page's worth of positions.
        EXPECT_GT(info.Value().last_step_pages_rewritten, 0u);
      } else {
        EXPECT_EQ(info.Value().last_step_pages_rewritten, 0u);
      }
      reference.StepTo(step);
    }

    const std::vector<AABB> queries = gen.MakeQueries(&rng, 12, 0.005,
                                                      0.03);
    reference.octopus.ResetStats();
    engine::QueryBatchResult expected;
    reference.engine.Execute(reference.octopus, reference.mesh, queries,
                             &expected);

    auto result = remote->ExecuteBatch(queries);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Epoch-stamped: the batch ran at exactly this step.
    EXPECT_EQ(result.Value().stats.epoch,
              (engine::EpochInfo{step + 1, step}));
    EXPECT_EQ(result.Value().results.epoch.step, step);
    ASSERT_EQ(result.Value().results.size(), expected.size());
    for (size_t q = 0; q < expected.size(); ++q) {
      // Bit-identical to the in-process engine on the same trajectory.
      // (Brute force is only a valid oracle on the undeformed mesh: a
      // deformed query region can be graph-disconnected, and the crawl
      // — per the paper — returns the component of its starts.)
      EXPECT_EQ(result.Value().results.per_query[q],
                expected.per_query[q])
          << "query " << q;
      if (step == 0) {
        EXPECT_EQ(Sorted(result.Value().results.per_query[q]),
                  BruteForceRangeQuery(reference.mesh, queries[q]))
            << "query " << q;
      }
    }
    // Non-I/O counters match the in-process engine too; the epoch step
    // is reported as the index staleness.
    const PhaseStats remote_stats =
        result.Value().stats.ToPhaseStats();
    EXPECT_EQ(remote_stats.queries, reference.octopus.stats().queries);
    EXPECT_EQ(remote_stats.probed_vertices,
              reference.octopus.stats().probed_vertices);
    EXPECT_EQ(remote_stats.walk_invocations,
              reference.octopus.stats().walk_invocations);
    EXPECT_EQ(remote_stats.crawl_edges,
              reference.octopus.stats().crawl_edges);
    EXPECT_EQ(remote_stats.result_vertices,
              reference.octopus.stats().result_vertices);
    EXPECT_EQ(remote_stats.stale_steps, step);
    crawl_edges += remote_stats.crawl_edges;
    scan_queries += reference.octopus.stats().scan_queries;
    queries_run += queries.size();
  }
  EXPECT_GT(crawl_edges, 0u);
  EXPECT_GT(scan_queries, 0u);
  EXPECT_LT(scan_queries, queries_run);

  // STATS reports the authoritative step count.
  auto stats = remote->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.Value().Find("octopus_steps_applied_total"),
            static_cast<double>(kSteps));

  // Even an empty batch (fast path, no scheduler) is epoch-stamped.
  auto empty = remote->ExecuteBatch({});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.Value().stats.epoch,
            (engine::EpochInfo{kSteps + 1, kSteps}));

  // Over-cap step counts fail locally without killing the connection.
  auto over = remote->Step(server::kMaxStepsPerFrame + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(remote->FetchEpochInfo().ok());

  fixture.StopAndJoin();
  if (!path.empty()) std::remove(path.c_str());
}

// --- The served Eq. 6 route: server and reference route alike ---

/// octobench's verification rule, in process: a backend at a deformed
/// epoch answers exactly as a default `Octopus` built from the same
/// step-0 mesh and replayed to that step. The same boxes go to the
/// scan, and every box returns the same ids in the same order.
void RunServedRouteParity(bool paged, int threads) {
  constexpr int kSteps = 6;
  const TetraMesh mesh = MakeNeuroMesh(0, 0.4).MoveValue();
  DeformerSpec spec;
  spec.kind = DeformerKind::kPlasticity;
  spec.amplitude = DefaultAmplitude(EstimateMeanEdgeLength(mesh));
  spec.seed = 1;

  std::unique_ptr<VersionedBackend> backend;
  std::string path;
  if (paged) {
    path = ::testing::TempDir() + "/served_route_" +
           std::to_string(threads) + ".oct2";
    ASSERT_TRUE(SaveSnapshot(mesh, path).ok());
    auto opened = VersionedBackend::OpenSnapshot(
        path, /*pool_bytes=*/64 * storage::kDefaultPageBytes, threads);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    backend = opened.MoveValue();
  } else {
    backend = VersionedBackend::FromMesh(mesh, threads);
  }
  ASSERT_TRUE(backend->BindDeformer(spec).ok());
  for (int step = 1; step <= kSteps; ++step) backend->AdvanceStep();

  TetraMesh replayed = mesh;
  Octopus reference;
  reference.Build(replayed);
  auto deformer = MakeDeformer(spec);
  ASSERT_TRUE(deformer.ok());
  deformer.Value()->Bind(replayed);
  for (int step = 1; step <= kSteps; ++step) {
    deformer.Value()->ApplyStep(step, &replayed);
  }

  QueryGenerator gen(mesh);
  Rng rng(0x5CA4 + threads);
  const std::vector<AABB> boxes = gen.MakeQueries(&rng, 80, 0.002, 0.04);
  engine::QueryBatchResult got;
  PhaseStats stats;
  backend->Execute(boxes, &got, &stats);
  EXPECT_EQ(got.epoch.step, static_cast<uint32_t>(kSteps));
  engine::QueryEngine engine(engine::QueryEngineOptions{.threads = threads});
  engine::QueryBatchResult want;
  engine.Execute(reference, replayed, boxes, &want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    EXPECT_EQ(got.per_query[q], want.per_query[q]) << "query " << q;
  }
  EXPECT_EQ(stats.scan_queries, reference.stats().scan_queries);
  EXPECT_GT(stats.scan_queries, 0u);
  EXPECT_LT(stats.scan_queries, boxes.size());
  EXPECT_EQ(stats.crawl_edges, reference.stats().crawl_edges);
  EXPECT_GT(stats.crawl_edges, 0u);
  EXPECT_EQ(stats.result_vertices, reference.stats().result_vertices);
  if (!path.empty()) std::remove(path.c_str());
}

TEST(ServedRouteTest, InMemoryBackendMatchesReplayedOctopus1Thread) {
  RunServedRouteParity(/*paged=*/false, 1);
}

TEST(ServedRouteTest, InMemoryBackendMatchesReplayedOctopus4Threads) {
  RunServedRouteParity(/*paged=*/false, 4);
}

TEST(ServedRouteTest, PagedBackendMatchesReplayedOctopus1Thread) {
  RunServedRouteParity(/*paged=*/true, 1);
}

TEST(ServedRouteTest, PagedBackendMatchesReplayedOctopus4Threads) {
  RunServedRouteParity(/*paged=*/true, 4);
}

TEST(DynamicServingTest, EpochParityInMemory1Thread) {
  RunEpochParity(/*paged=*/false, /*threads=*/1);
}

TEST(DynamicServingTest, EpochParityInMemory4Threads) {
  RunEpochParity(/*paged=*/false, /*threads=*/4);
}

TEST(DynamicServingTest, EpochParityPaged1Thread) {
  RunEpochParity(/*paged=*/true, /*threads=*/1);
}

TEST(DynamicServingTest, EpochParityPaged4Threads) {
  RunEpochParity(/*paged=*/true, /*threads=*/4);
}

// --- Pinned repeatable reads over the wire (OCTP v3) ---

/// The acceptance path end to end: pin an epoch, step far past the
/// retention window (the pinned epoch spills to the .oct2d sidecar),
/// re-query it by id — bit-identical to the answer captured while it
/// was current. Unpinned history past the cap is EPOCH_GONE (typed,
/// connection survives), and unpinning the epoch makes it evictable.
void RunRepeatableRead(bool paged) {
  constexpr uint32_t kWindow = 2;
  constexpr uint32_t kHistory = 3;
  constexpr uint32_t kSteps = 10;  // K >> W
  const TetraMesh mesh = MakeBox(6);
  const DeformerSpec spec = ParitySpec(DeformerKind::kRandom);

  std::unique_ptr<VersionedBackend> backend;
  std::string path;
  if (paged) {
    path = ::testing::TempDir() + "/repeatable.oct2";
    ASSERT_TRUE(SaveSnapshot(mesh, path,
                             storage::SnapshotOptions{.page_bytes = 1024})
                    .ok());
    auto opened =
        VersionedBackend::OpenSnapshot(path, /*pool_bytes=*/64 * 1024, 1);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    backend = opened.MoveValue();
  } else {
    backend = VersionedBackend::FromMesh(mesh, 1);
  }
  server::EpochRetentionOptions retention;
  retention.retention_epochs = kWindow;
  retention.history_epochs = kHistory;
  retention.spill_path = ::testing::TempDir() + "/repeatable_" +
                         (paged ? "p" : "m") + ".oct2d";
  ASSERT_TRUE(backend->ConfigureRetention(retention).ok());
  ASSERT_TRUE(backend->BindDeformer(spec).ok());
  VersionedBackend* raw_backend = backend.get();

  ServerFixture fixture(std::move(backend));
  auto remote = MustConnect(fixture.port());

  // Advance one step (epoch 2: ids start at 1 for the initial state)
  // and pin it ("pin what I'm seeing": field 0).
  ASSERT_TRUE(remote->Step(1).ok());
  auto pinned = remote->PinEpoch(0);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned.Value().epoch, 2u);
  EXPECT_EQ(pinned.Value().step, 1u);

  QueryGenerator gen(mesh);
  Rng rng(0x9E9);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 10, 0.005,
                                                    0.04);
  auto live = remote->ExecuteBatch(queries);  // epoch 2 is current
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_EQ(live.Value().stats.epoch, (engine::EpochInfo{2, 1}));

  // Step far past the retention window: epoch 2 leaves memory.
  for (uint32_t s = 1; s < kSteps; ++s) {
    ASSERT_TRUE(remote->Step(1).ok());
  }
  const server::EpochStore* store = raw_backend->epoch_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->resident_epochs(), kWindow);
  EXPECT_GT(store->spill_pages_written(), 0u);

  // Repeatable read: the pinned epoch answers bit-identically to its
  // live-epoch answer, spill + reload notwithstanding.
  auto replay = remote->ExecuteBatch(queries, /*epoch=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.Value().stats.epoch, (engine::EpochInfo{2, 1}));
  EXPECT_EQ(replay.Value().results.epoch.step, 1u);
  ASSERT_EQ(replay.Value().results.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(replay.Value().results.per_query[q],
              live.Value().results.per_query[q])
        << "query " << q;
  }

  // An unpinned epoch past the history cap is a typed EPOCH_GONE; the
  // connection survives and current-epoch queries still work.
  auto gone = remote->ExecuteBatch(queries, /*epoch=*/3);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), Status::Code::kNotFound)
      << gone.status().ToString();
  auto still_alive = remote->ExecuteBatch(queries);
  ASSERT_TRUE(still_alive.ok()) << still_alive.status().ToString();
  EXPECT_EQ(still_alive.Value().stats.epoch.step, kSteps);

  // Pinning an evicted epoch is EPOCH_GONE too.
  auto pin_gone = remote->PinEpoch(4);
  ASSERT_FALSE(pin_gone.ok());
  EXPECT_EQ(pin_gone.status().code(), Status::Code::kNotFound);
  // Unpinning an epoch this session never pinned is refused.
  auto not_ours = remote->UnpinEpoch(kSteps);
  ASSERT_FALSE(not_ours.ok());
  EXPECT_EQ(not_ours.status().code(), Status::Code::kNotFound);

  // Releasing the pin evicts the (far out of window) epoch immediately.
  auto released = remote->UnpinEpoch(2);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  auto after_release = remote->ExecuteBatch(queries, /*epoch=*/2);
  ASSERT_FALSE(after_release.ok());
  EXPECT_EQ(after_release.status().code(), Status::Code::kNotFound);

  // A dying session releases its pins: pin from a second connection,
  // drop it, and watch the epoch become evictable at the next step.
  {
    auto doomed = MustConnect(fixture.port());
    auto pin2 = doomed->PinEpoch(0);
    ASSERT_TRUE(pin2.ok()) << pin2.status().ToString();
    EXPECT_EQ(pin2.Value().epoch, kSteps + 1);
  }  // disconnect releases the pin server-side
  for (uint32_t s = 0; s < kHistory + kWindow + 1; ++s) {
    ASSERT_TRUE(remote->Step(1).ok());
  }
  auto dead_pin = remote->ExecuteBatch(queries, /*epoch=*/kSteps + 1);
  ASSERT_FALSE(dead_pin.ok());
  EXPECT_EQ(dead_pin.status().code(), Status::Code::kNotFound)
      << "a dead session's pin must not keep its epoch alive";

  fixture.StopAndJoin();
  if (!path.empty()) std::remove(path.c_str());
}

TEST(DynamicServingTest, PinnedRepeatableReadsInMemory) {
  RunRepeatableRead(/*paged=*/false);
}

TEST(DynamicServingTest, PinnedRepeatableReadsPaged) {
  RunRepeatableRead(/*paged=*/true);
}

// A v2 peer (the epoch-less QUERY_BATCH layout) is rejected in the
// handshake with a typed version error — its frames are never
// misparsed against the v3 layout.
TEST(DynamicServingTest, V2PeerGetsTypedVersionError) {
  ServerFixture fixture(VersionedBackend::FromMesh(MakeBox(4), 1));
  // Hand-roll a v2 HELLO through a raw socket: RemoteClient always
  // speaks the current version.
  server::Buffer hello;
  server::HelloFrame old_peer;
  old_peer.version = 2;
  server::AppendHello(&hello, old_peer);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));
  uint8_t header[server::kFrameHeaderBytes];
  size_t have = 0;
  while (have < sizeof(header)) {
    const ssize_t n = recv(fd, header + have, sizeof(header) - have, 0);
    ASSERT_GT(n, 0);
    have += static_cast<size_t>(n);
  }
  auto parsed = server::ParseFrameHeader(header);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.Value().type, server::FrameType::kError);
  server::Buffer payload(parsed.Value().payload_bytes);
  have = 0;
  while (have < payload.size()) {
    const ssize_t n =
        recv(fd, payload.data() + have, payload.size() - have, 0);
    ASSERT_GT(n, 0);
    have += static_cast<size_t>(n);
  }
  server::ErrorFrame error;
  ASSERT_TRUE(server::ParseError(payload, &error).ok());
  EXPECT_EQ(error.code, server::ErrorCode::kVersionMismatch)
      << server::ErrorCodeName(error.code);
  close(fd);
}

// Pins on a static server: pinning "current" is a harmless no-op (one
// client code path for both server kinds); naming a historical epoch is
// EPOCH_GONE — a static server has only its load-time state.
TEST(DynamicServingTest, StaticServerPinsAreNoOpsAndHistoryIsGone) {
  ServerFixture fixture(VersionedBackend::FromMesh(MakeBox(4), 1));
  auto remote = MustConnect(fixture.port());
  auto pinned = remote->PinEpoch(0);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned.Value().epoch, 0u);
  auto gone = remote->ExecuteBatch(
      std::vector<AABB>{AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))}, /*epoch=*/5);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), Status::Code::kNotFound);
}

// --- STEP frame semantics on a static server ---

TEST(DynamicServingTest, StepOnStaticServerReportsEpochZeroAndRejects) {
  ServerFixture fixture(VersionedBackend::FromMesh(MakeBox(4), 1));
  auto remote = MustConnect(fixture.port());
  EXPECT_EQ(remote->server_info().dynamic, 0);

  // steps = 0 is a pure epoch query, legal everywhere.
  auto info = remote->FetchEpochInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.Value().epoch, 0u);
  EXPECT_EQ(info.Value().step, 0u);
  EXPECT_EQ(info.Value().dynamic, 0);

  // steps > 0 without a deformer is a protocol error (typed, closing).
  auto advanced = remote->Step(1);
  ASSERT_FALSE(advanced.ok());
  EXPECT_EQ(advanced.status().code(), Status::Code::kInvalidArgument)
      << advanced.status().ToString();
}

// --- Queries race an in-flight stepper without blocking or tearing ---

TEST(DynamicServingTest, ConcurrentStepsNeverTearQueryResults) {
  constexpr int kQueryRounds = 40;
  const TetraMesh base = MakeBox(6);
  const DeformerSpec spec = ParitySpec(DeformerKind::kRandom);
  auto backend = VersionedBackend::FromMesh(base, /*threads=*/1);
  ASSERT_TRUE(backend->BindDeformer(spec).ok());

  // Stepper thread: advance as fast as it can while queries execute.
  std::atomic<bool> stop{false};
  std::thread stepper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      backend->AdvanceStep();
    }
  });

  // RandomDeformer is stateless per step (the step index is mixed into
  // the RNG), so the reference can jump straight to any stamped step
  // and replay it through the same stale-index engine. A torn batch —
  // some queries at step s, some at s+1, or half-updated positions —
  // would match the reference at NO single step.
  TetraMesh reference = base;
  RandomDeformer reference_deformer(spec.amplitude, spec.seed);
  reference_deformer.Bind(reference);
  Octopus reference_octopus;
  reference_octopus.Build(base);  // stale, like the backend's
  engine::QueryEngine reference_engine;

  QueryGenerator gen(base);
  Rng rng(77);
  uint32_t max_step_seen = 0;
  bool failed = false;
  for (int round = 0; round < kQueryRounds && !failed; ++round) {
    const std::vector<AABB> queries = gen.MakeQueries(&rng, 4, 0.01,
                                                      0.05);
    engine::QueryBatchResult out;
    PhaseStats stats;
    backend->Execute(queries, &out, &stats);
    const uint32_t step = out.epoch.step;
    max_step_seen = std::max(max_step_seen, step);
    if (step > 0) {
      reference_deformer.ApplyStep(static_cast<int>(step), &reference);
    }
    engine::QueryBatchResult expected;
    reference_engine.Execute(reference_octopus,
                             step == 0 ? base : reference, queries,
                             &expected);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(out.per_query[q], expected.per_query[q])
          << "round " << round << " query " << q << " at step " << step;
      failed |= out.per_query[q] != expected.per_query[q];
    }
  }
  stop.store(true, std::memory_order_release);
  stepper.join();
  EXPECT_FALSE(failed);
  // The stepper really ran concurrently with the queries.
  EXPECT_GT(backend->CurrentEpoch().step, 0u);
  EXPECT_GT(max_step_seen, 0u);
}

}  // namespace
}  // namespace octopus
