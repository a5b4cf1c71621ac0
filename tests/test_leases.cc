// Copyright 2026 The OCTOPUS Reproduction Authors
// Leased page references, end to end: TryPin's non-blocking contract,
// paged-vs-in-memory result parity with leasing active (static and
// dynamic, 1 and 4 threads), the tiny-pool/many-thread liveness
// guarantee under the lease discipline, and the counter semantics that
// make "page accesses" approximate distinct-pages-touched per batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/thread_pool.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_io.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "server/versioned_backend.h"
#include "sim/workload.h"
#include "storage/buffer_manager.h"
#include "storage/paged_mesh.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace octopus {
namespace {

using server::VersionedBackend;
using storage::BufferManager;
using storage::PagedMeshAccessor;
using storage::PagedMeshStore;
using storage::PageIOStats;
using storage::SnapshotLayout;
using storage::SnapshotOptions;
using testing::BruteForceRangeQuery;
using testing::Sorted;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// ---------- TryPin: the only way leases are acquired ----------

TEST(TryPinTest, NonBlockingAndCountsNothingOnFailure) {
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("trypin.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());
  const size_t page_bytes = header.Value().page_bytes;
  const auto num_pages =
      static_cast<storage::PageId>(header.Value().num_pages);
  ASSERT_GT(num_pages, 3u);

  auto opened = BufferManager::Open(
      path, page_bytes, num_pages,
      BufferManager::Options{.pool_bytes = 2 * page_bytes});
  ASSERT_TRUE(opened.ok());
  BufferManager* pool = opened.Value().get();

  // Fill both frames with ordinary pins.
  PageIOStats stats;
  ASSERT_NE(pool->Pin(0, &stats), nullptr);
  ASSERT_NE(pool->Pin(1, &stats), nullptr);
  const PageIOStats full = stats;

  // Non-resident page, no free frame: TryPin must return null
  // immediately and leave every counter untouched — Pin would block.
  EXPECT_EQ(pool->TryPin(2, &stats), nullptr);
  EXPECT_EQ(stats.page_hits, full.page_hits);
  EXPECT_EQ(stats.page_misses, full.page_misses);
  EXPECT_EQ(stats.page_evictions, full.page_evictions);

  // A resident page is a hit even with the pool full (it adds a pin to
  // an existing frame, not a frame).
  const std::byte* resident = pool->TryPin(1, &stats);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(stats.page_hits, full.page_hits + 1);
  pool->Unpin(1);

  // Freeing a frame lets TryPin load: priced as a miss, like Pin.
  pool->Unpin(0);
  const std::byte* loaded = pool->TryPin(2, &stats);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(stats.page_misses, full.page_misses + 1);
  pool->Unpin(2);
  pool->Unpin(1);
  std::remove(path.c_str());
}

// ---------- Static parity: leases change costs, never results ----------

/// The paged executor (leases active under a generous pool) must return
/// bit-identical per-query vertex lists to the in-memory executor on the
/// same mesh, at 1 and 4 threads.
TEST(LeaseParityTest, StaticPagedMatchesInMemory1And4Threads) {
  const TetraMesh mesh = MakeBox(9);
  const std::string path = TempPath("lease_parity.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());

  Octopus reference;
  reference.Build(mesh);

  // A pool large enough that leases and zero-copy spans engage.
  PagedOctopus::Options options;
  options.pool.pool_bytes =
      std::max<size_t>(header.Value().FileBytes() / 2, 64 * 512);
  auto paged = PagedOctopus::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  QueryGenerator gen(mesh);
  Rng rng(0x1EA5E);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 24, 0.001, 0.02);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    engine::ThreadPool pool(threads);
    engine::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

    engine::QueryBatchResult expected;
    reference.RangeQueryBatch(mesh, queries, &expected, pool_ptr);
    engine::QueryBatchResult results;
    paged.Value()->RangeQueryBatch(queries, &results, pool_ptr);

    ASSERT_EQ(results.size(), expected.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(results.per_query[q], expected.per_query[q])
          << "query " << q;
      EXPECT_EQ(Sorted(results.per_query[q]),
                BruteForceRangeQuery(mesh, queries[q]))
          << "query " << q;
    }
  }
  // The workload actually exercised the lease path.
  EXPECT_GT(paged.Value()->stats().page_io.pages_leased, 0u);
  EXPECT_GT(paged.Value()->stats().page_io.lease_hits, 0u);
  std::remove(path.c_str());
}

// ---------- Dynamic parity: leases + overlays, in-memory oracle ----------

/// Both backend kinds advance the same deformer trajectory; at every
/// step the paged backend (leases + delta overlays) must answer
/// bit-identically to the in-memory one.
void RunDynamicLeaseParity(int threads) {
  const TetraMesh mesh = MakeBox(7);
  const std::string path = TempPath("lease_dynparity.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 1024}).ok());

  DeformerSpec spec;
  spec.kind = DeformerKind::kRandom;
  spec.amplitude = 0.02f;
  spec.seed = 77;

  auto in_memory = VersionedBackend::FromMesh(mesh, threads);
  ASSERT_TRUE(in_memory->BindDeformer(spec).ok());
  auto opened =
      VersionedBackend::OpenSnapshot(path, /*pool_bytes=*/256 * 1024,
                                     threads);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto paged = opened.MoveValue();
  ASSERT_TRUE(paged->BindDeformer(spec).ok());

  QueryGenerator gen(mesh);
  Rng rng(0xD1A + threads);
  for (uint32_t step = 0; step <= 4; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) {
      in_memory->AdvanceStep();
      paged->AdvanceStep();
    }
    const std::vector<AABB> queries = gen.MakeQueries(&rng, 10, 0.005,
                                                      0.03);
    engine::QueryBatchResult expected;
    PhaseStats expected_stats;
    in_memory->Execute(queries, &expected, &expected_stats);
    engine::QueryBatchResult results;
    PhaseStats stats;
    paged->Execute(queries, &results, &stats);

    EXPECT_EQ(results.epoch, expected.epoch);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(results.per_query[q], expected.per_query[q])
          << "query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(LeaseParityTest, DynamicPagedMatchesInMemory1Thread) {
  RunDynamicLeaseParity(1);
}

TEST(LeaseParityTest, DynamicPagedMatchesInMemory4Threads) {
  RunDynamicLeaseParity(4);
}

// ---------- Liveness: constrained pools degrade, never deadlock ----------

/// Many threads on pools from degenerate (2 pages: lease cap 0, exact
/// legacy behavior) to barely-roomy must all finish with exact results
/// and never exceed the byte cap — the lease discipline's headroom rules
/// are what make this safe.
TEST(LeaseStressTest, TinyPoolsManyThreadsNoDeadlockCapRespected) {
  const TetraMesh mesh = MakeBox(8);
  const std::string path = TempPath("lease_stress.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());

  QueryGenerator gen(mesh);
  Rng rng(11);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 16, 0.001, 0.02);

  for (const size_t pool_pages : {size_t{2}, size_t{8}, size_t{48}}) {
    SCOPED_TRACE("pool pages " + std::to_string(pool_pages));
    PagedOctopus::Options options;
    options.pool.pool_bytes = pool_pages * 512;
    auto paged = PagedOctopus::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    engine::ThreadPool pool(8);
    engine::QueryBatchResult results;
    paged.Value()->RangeQueryBatch(queries, &results, &pool);

    ASSERT_EQ(results.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(Sorted(results.per_query[q]),
                BruteForceRangeQuery(mesh, queries[q]))
          << "query " << q;
    }
    EXPECT_LE(
        paged.Value()->store().buffer_manager()->AllocatedBytes(),
        pool_pages * 512);
  }
  std::remove(path.c_str());
}

// ---------- Revocation parity: recency list vs the min-tick scan ----------

/// The lease decisions of a standalone accessor over the base snapshot,
/// as they were made before the recency list: every lease stamped with
/// an accessor-local tick on each use, and `Revoke` the min-tick scan
/// that skips the lease backing the outstanding zero-copy span, kept
/// verbatim as the parity oracle. The read paths mirror
/// `PagedMeshAccessor::{position,neighbors,PrefetchPosition}` with
/// leasing on and a pool large enough that `TryPin` never fails.
class MinTickLeaseModel {
 public:
  MinTickLeaseModel(const TetraMesh& mesh, const storage::SnapshotHeader& h,
                    size_t cap, bool zero_copy)
      : h_(h), cap_(cap), zero_copy_(zero_copy) {
    offsets_.push_back(0);
    for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
      offsets_.push_back(offsets_.back() +
                         static_cast<uint32_t>(mesh.neighbors(v).size()));
    }
  }

  void Position(VertexId v) {
    const uint64_t index = v / h_.PositionsPerPage();
    if (index == pos_mru_) {
      ++lease_hits;
      return;
    }
    Read(h_.positions_start_page + index);
    pos_mru_ = index;
  }

  void Neighbors(VertexId v) {
    span_ = storage::kInvalidPageId;
    const size_t per_page = h_.U32PerPage();
    Read(h_.adj_offsets_start_page + v / per_page);
    if ((v + 1) / per_page != v / per_page) {
      Read(h_.adj_offsets_start_page + (v + 1) / per_page);
    }
    const size_t degree = offsets_[v + 1] - offsets_[v];
    if (zero_copy_ && degree != 0 &&
        offsets_[v] % per_page + degree <= per_page) {
      const auto page = static_cast<storage::PageId>(
          h_.adj_start_page + offsets_[v] / per_page);
      if (auto it = ticks_.find(page); it != ticks_.end()) {
        it->second = ++tick_;
        ++lease_hits;
      } else {
        Acquire(page);
      }
      span_ = page;
      return;
    }
    for (size_t done = 0; done < degree;) {
      const uint64_t entry = offsets_[v] + done;
      const size_t chunk =
          std::min(degree - done, per_page - entry % per_page);
      Read(h_.adj_start_page + entry / per_page);
      done += chunk;
    }
  }

  void Prefetch(VertexId v) {
    const uint64_t index = v / h_.PositionsPerPage();
    if (index == last_prefetch_) return;
    last_prefetch_ = index;
    if (ticks_.size() >= cap_) return;
    const auto page =
        static_cast<storage::PageId>(h_.positions_start_page + index);
    if (ticks_.count(page) == 0) Acquire(page);
  }

  void EndBatch() {
    ticks_.clear();
    distinct_.clear();
    span_ = storage::kInvalidPageId;
    pos_mru_ = ~0ull;
    last_prefetch_ = ~0ull;
  }

  bool Leased(storage::PageId page) const { return ticks_.count(page) != 0; }
  size_t held() const { return ticks_.size(); }

  size_t lease_hits = 0;
  size_t pages_leased = 0;
  size_t pages_distinct = 0;
  size_t revocations = 0;

 private:
  void Read(uint64_t page_id) {
    const auto page = static_cast<storage::PageId>(page_id);
    if (auto it = ticks_.find(page); it != ticks_.end()) {
      it->second = ++tick_;
      ++lease_hits;
      return;
    }
    Acquire(page);
  }

  void Acquire(storage::PageId page) {
    ++pages_leased;
    // The distinct-page oracle: a node-based set, cleared per batch.
    if (distinct_.insert(page).second) ++pages_distinct;
    if (ticks_.size() == cap_) Revoke();
    ticks_[page] = ++tick_;
  }

  void Revoke() {
    ++revocations;
    pos_mru_ = ~0ull;
    storage::PageId victim = storage::kInvalidPageId;
    uint64_t oldest = ~0ull;
    for (const auto& [page, tick] : ticks_) {
      if (page == span_) continue;  // the span's page is protected
      if (tick < oldest) {
        oldest = tick;
        victim = page;
      }
    }
    ASSERT_NE(victim, storage::kInvalidPageId);
    ticks_.erase(victim);
  }

  const storage::SnapshotHeader h_;
  const size_t cap_;
  const bool zero_copy_;
  std::vector<uint32_t> offsets_;
  std::map<storage::PageId, uint64_t> ticks_;
  std::unordered_set<storage::PageId> distinct_;
  uint64_t tick_ = 0;
  storage::PageId span_ = storage::kInvalidPageId;
  uint64_t pos_mru_ = ~0ull;
  uint64_t last_prefetch_ = ~0ull;
};

/// Random crawl-like reads (position, neighbors with zero-copy spans,
/// prefetch, batch ends) through one accessor on a pool of `frames`
/// frames: after every read, the pages the pool holds pinned must be
/// exactly the model's leases, the lease counters (`pages_distinct`
/// included) must agree, and the outstanding span must still read the
/// right neighbors.
void RunRevocationParity(size_t frames, int ops, uint64_t seed) {
  SCOPED_TRACE("frames " + std::to_string(frames));
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("lease_revocation.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto store = PagedMeshStore::Open(
      path, BufferManager::Options{.pool_bytes = frames * 256});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  BufferManager* pool = store.Value()->buffer_manager();
  const storage::SnapshotHeader& h = store.Value()->header();

  PageIOStats stats;
  PagedMeshAccessor accessor(store.Value().get(), &stats);
  ASSERT_EQ(accessor.lease_cap(), frames - 2);
  MinTickLeaseModel model(mesh, h, accessor.lease_cap(),
                          accessor.zero_copy_enabled());
  Rng rng(seed);
  VertexId v = 0;
  VertexId span_vertex = 0;
  std::span<const VertexId> span;
  for (int op = 0; op < ops; ++op) {
    // Mostly step to a neighbor (crawl locality), sometimes jump.
    const auto around = mesh.neighbors(v);
    v = rng.NextBelow(4) != 0 && !around.empty()
            ? around[rng.NextBelow(around.size())]
            : static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 45) {
      ASSERT_EQ(accessor.position(v), mesh.position(v));
      model.Position(v);
    } else if (kind < 88) {
      span = accessor.neighbors(v);
      span_vertex = v;
      model.Neighbors(v);
    } else if (kind < 99) {
      accessor.PrefetchPosition(v);
      model.Prefetch(v);
    } else {
      accessor.EndBatch();
      accessor.BeginBatch({}, 1);
      model.EndBatch();
      span = {};
    }
    if (::testing::Test::HasFatalFailure()) return;
    const auto want = mesh.neighbors(span_vertex);
    ASSERT_TRUE(span.empty() ||
                std::equal(span.begin(), span.end(), want.begin(),
                           want.end()))
        << "op " << op << ": the outstanding span was revoked";
    ASSERT_EQ(stats.lease_revocations, model.revocations) << "op " << op;
    ASSERT_EQ(stats.lease_hits, model.lease_hits) << "op " << op;
    ASSERT_EQ(stats.pages_leased, model.pages_leased) << "op " << op;
    ASSERT_EQ(stats.pages_distinct, model.pages_distinct) << "op " << op;
    ASSERT_EQ(accessor.leases_held(), model.held()) << "op " << op;
    for (storage::PageId page = 0; page < h.num_pages; ++page) {
      ASSERT_EQ(pool->PinCount(page).value_or(0), model.Leased(page) ? 1u : 0u)
          << "op " << op << " page " << page;
    }
  }
  EXPECT_FALSE(accessor.degraded());
  EXPECT_GT(model.revocations, static_cast<size_t>(ops) / 20);
  accessor.EndBatch();
  std::remove(path.c_str());
}

TEST(LeaseRevocationTest, RecencyListRevokesTheMinTickScansLease) {
  // Lease caps 3 (no zero-copy) to 6; the span-protection rule matters
  // from cap 4 on.
  uint64_t seed = 0x1EA5E;
  for (const size_t frames : {5, 6, 7, 8}) {
    RunRevocationParity(frames, 20000, seed++);
    if (HasFatalFailure()) return;
  }
}

// ---------- Counter semantics: accesses ≈ distinct pages ----------

/// On a Hilbert-clustered snapshot with a warm pool, a batch's priced
/// page accesses (hits + misses) must track the distinct pages it
/// touched — the whole point of leasing: repeated reads of a mapped
/// page are free (`lease_hits`), not re-priced.
TEST(LeaseCounterTest, PageAccessesApproximateDistinctPages) {
  const TetraMesh mesh = MakeBox(10);
  const std::string path = TempPath("lease_counters.oct2");
  ASSERT_TRUE(
      SaveSnapshot(mesh, path,
                   SnapshotOptions{.page_bytes = 512,
                                   .layout = SnapshotLayout::kHilbert})
          .ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());

  // Pool covers the snapshot: no capacity-driven lease churn.
  PagedOctopus::Options options;
  options.pool.pool_bytes = header.Value().FileBytes() + 4 * 512;
  auto paged = PagedOctopus::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  QueryGenerator gen(mesh);
  Rng rng(0xC0);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 12, 0.002, 0.02);

  engine::QueryBatchResult results;
  paged.Value()->RangeQueryBatch(queries, &results);  // cold run
  paged.Value()->ResetStats();
  paged.Value()->RangeQueryBatch(queries, &results);  // measured, warm

  const PageIOStats& io = paged.Value()->stats().page_io;
  ASSERT_GT(io.pages_distinct, 0u);
  EXPECT_GT(io.lease_hits, 0u);
  EXPECT_GT(io.pages_leased, 0u);
  // The acceptance bound: priced accesses within 2x of exact distinct.
  EXPECT_LE(io.PageAccesses(), 2 * io.pages_distinct)
      << "hits=" << io.page_hits << " misses=" << io.page_misses
      << " distinct=" << io.pages_distinct;
  // And re-reads vastly outnumber priced accesses on a crawl workload.
  EXPECT_GT(io.lease_hits, io.PageAccesses());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace octopus
