// Copyright 2026 The OCTOPUS Reproduction Authors
// Tests of the out-of-core storage engine: OCT2 snapshot round-trip and
// error paths, the buffer manager's byte cap / pin discipline / eviction
// policies, accessor-vs-mesh data parity, paged query correctness on a
// snapshot several times larger than the pool (the fig6-style workload),
// and the Hilbert layout's page-miss advantage over an arbitrary vertex
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/thread_pool.h"
#include "harness/bench_harness.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/hilbert_layout.h"
#include "mesh/mesh_io.h"
#include "mesh/surface.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "sim/workload.h"
#include "storage/buffer_manager.h"
#include "storage/paged_mesh.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace octopus {
namespace {

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

/// Deterministic arbitrary-order relabeling (the paper's meshes arrive
/// in arbitrary order; the generator's native order is already fairly
/// coherent).
TetraMesh Shuffled(const TetraMesh& mesh, uint64_t seed) {
  VertexPermutation perm;
  perm.new_to_old.resize(mesh.num_vertices());
  std::iota(perm.new_to_old.begin(), perm.new_to_old.end(), 0u);
  Rng rng(seed);
  for (size_t i = perm.new_to_old.size(); i > 1; --i) {
    std::swap(perm.new_to_old[i - 1],
              perm.new_to_old[rng.NextBelow(i)]);
  }
  perm.old_to_new.resize(perm.new_to_old.size());
  for (size_t n = 0; n < perm.new_to_old.size(); ++n) {
    perm.old_to_new[perm.new_to_old[n]] = static_cast<VertexId>(n);
  }
  return ApplyPermutation(mesh, perm);
}

// ---------- Snapshot format ----------

TEST(SnapshotTest, HeaderRoundTrip) {
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("snap_header.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  const storage::SnapshotHeader& h = header.Value();
  EXPECT_EQ(h.page_bytes, 512u);
  EXPECT_EQ(h.num_vertices, mesh.num_vertices());
  EXPECT_EQ(h.num_adj_entries, 2 * mesh.num_edges());
  EXPECT_EQ(h.num_tets, mesh.num_tetrahedra());
  EXPECT_EQ(h.num_surface_vertices,
            ExtractSurface(mesh).surface_vertices.size());
  EXPECT_EQ(static_cast<SnapshotLayout>(h.layout),
            SnapshotLayout::kOriginal);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsBadMagicTruncationAndGarbage) {
  const TetraMesh mesh = MakeBox(4);
  const std::string path = TempPath("snap_corrupt.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path).ok());

  // Truncate to half a page: header read fails.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> bytes(60);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    const std::string trunc = TempPath("snap_trunc.oct2");
    f = std::fopen(trunc.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    auto r = storage::ReadSnapshotHeader(trunc);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    std::remove(trunc.c_str());
  }

  // Flip the magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOPE", 1, 4, f);
    std::fclose(f);
    auto r = storage::ReadSnapshotHeader(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }

  // Missing file.
  auto missing = PagedMeshStore::Open(
      "/nonexistent/file.oct2", BufferManager::Options{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FileSizeMismatchIsCorruption) {
  const TetraMesh mesh = MakeBox(4);
  const std::string path = TempPath("snap_sizemismatch.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  // Append one stray byte: size no longer num_pages * page_bytes.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc('x', f);
  std::fclose(f);
  auto r = storage::ReadSnapshotHeader(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TinyPageSizeIsRejected) {
  const TetraMesh mesh = testing::MakeTwoTetMesh();
  const Status st = SaveSnapshot(mesh, TempPath("snap_tiny.oct2"),
                                 SnapshotOptions{.page_bytes = 64});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

// ---------- Accessor data parity ----------

TEST(PagedMeshTest, AccessorMatchesMeshExactly) {
  const TetraMesh mesh = MakeBox(5);
  const std::string path = TempPath("snap_parity.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto store = PagedMeshStore::Open(
      path, BufferManager::Options{.pool_bytes = 512});  // 2 pages only
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  PageIOStats stats;
  PagedMeshAccessor accessor(store.Value().get(), &stats);
  ASSERT_EQ(accessor.num_vertices(), mesh.num_vertices());
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_EQ(accessor.position(v), mesh.position(v)) << "vertex " << v;
    const auto paged = accessor.neighbors(v);
    const auto resident = mesh.neighbors(v);
    ASSERT_EQ(paged.size(), resident.size()) << "vertex " << v;
    EXPECT_TRUE(
        std::equal(paged.begin(), paged.end(), resident.begin()));
  }
  EXPECT_GT(stats.page_misses, 0u);
  EXPECT_EQ(store.Value()->surface_vertices(),
            ExtractSurface(mesh).surface_vertices);
  std::remove(path.c_str());
}

// ---------- Buffer manager ----------

TEST(BufferManagerTest, NeverExceedsByteCapAndCountsEvictions) {
  const TetraMesh mesh = MakeBox(8);
  const std::string path = TempPath("snap_cap.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());
  const size_t snapshot_bytes = header.Value().FileBytes();
  // A pool 4x smaller than the snapshot (at least 2 pages).
  const size_t cap = std::max<size_t>(snapshot_bytes / 4, 512);

  for (const auto eviction :
       {BufferManager::Eviction::kLRU, BufferManager::Eviction::kClock}) {
    SCOPED_TRACE(storage::EvictionName(eviction));
    auto store = PagedMeshStore::Open(
        path, BufferManager::Options{.pool_bytes = cap,
                                     .eviction = eviction});
    ASSERT_TRUE(store.ok());
    BufferManager* pool = store.Value()->buffer_manager();
    EXPECT_GE(pool->max_frames(), 2u);

    // Touch every page of every section several times over.
    PageIOStats stats;
    PagedMeshAccessor accessor(store.Value().get(), &stats);
    for (int round = 0; round < 3; ++round) {
      for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
        accessor.position(v);
        accessor.neighbors(v);
      }
      EXPECT_LE(pool->AllocatedBytes(), cap) << "round " << round;
    }
    // The whole snapshot cannot fit: evictions must have happened, and
    // re-reads of evicted pages show up as misses beyond distinct pages.
    EXPECT_GT(stats.page_evictions, 0u);
    EXPECT_GT(stats.page_misses, header.Value().num_pages);
    // Under the lease discipline repeated reads of a held page are
    // lease hits, not pool hits — pool hits are no longer guaranteed,
    // but the crawl-heavy access pattern must re-serve leased pages.
    EXPECT_GT(stats.lease_hits, 0u);
    EXPECT_GT(stats.pages_leased, 0u);
    const PageIOStats totals = pool->TotalStats();
    EXPECT_EQ(totals.page_hits, stats.page_hits);
    EXPECT_EQ(totals.page_misses, stats.page_misses);
    EXPECT_EQ(totals.page_evictions, stats.page_evictions);
  }
  std::remove(path.c_str());
}

TEST(BufferManagerTest, PoolSmallerThanTwoPagesIsRejected) {
  const TetraMesh mesh = testing::MakeTwoTetMesh();
  const std::string path = TempPath("snap_smallpool.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto store = PagedMeshStore::Open(
      path, BufferManager::Options{.pool_bytes = 511});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, PinKeepsPageResidentAcrossPressure) {
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("snap_pin.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto store = PagedMeshStore::Open(
      path, BufferManager::Options{.pool_bytes = 3 * 256});
  ASSERT_TRUE(store.ok());
  BufferManager* pool = store.Value()->buffer_manager();
  const auto num_pages =
      static_cast<storage::PageId>(store.Value()->header().num_pages);
  ASSERT_GT(num_pages, 8u);

  PageIOStats stats;
  const std::byte* pinned = pool->Pin(1, &stats);
  std::vector<std::byte> before(pinned, pinned + 64);
  // Cycle every other page through the two remaining frames.
  for (storage::PageId p = 2; p < num_pages; ++p) {
    pool->Pin(p, &stats);
    pool->Unpin(p);
  }
  // Page 1 must still be resident and untouched: a re-pin is a hit.
  const size_t misses_before = stats.page_misses;
  const std::byte* again = pool->Pin(1, &stats);
  EXPECT_EQ(stats.page_misses, misses_before);
  EXPECT_EQ(again, pinned);
  EXPECT_EQ(std::memcmp(before.data(), again, before.size()), 0);
  pool->Unpin(1);
  pool->Unpin(1);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, ConcurrentPinsOnTinyPoolStayConsistent) {
  // Regression for the blocked-Pin path: a thread that waits for a free
  // frame must re-probe residency on wake, or a page can be loaded into
  // two frames and the pin bookkeeping corrupted. Hammer a 2-frame pool
  // from 4 threads and verify every pinned page's content against a
  // directly-read copy of the file.
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("snap_concurrent.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 256}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());
  const size_t page_bytes = header.Value().page_bytes;
  const auto num_pages =
      static_cast<storage::PageId>(header.Value().num_pages);

  std::vector<unsigned char> file_image(header.Value().FileBytes());
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(file_image.data(), 1, file_image.size(), f),
              file_image.size());
    std::fclose(f);
  }

  auto pool = BufferManager::Open(
      path, page_bytes, num_pages,
      BufferManager::Options{.pool_bytes = 2 * page_bytes});
  ASSERT_TRUE(pool.ok());
  BufferManager* manager = pool.Value().get();

  std::atomic<int> mismatches{0};
  auto hammer = [&](uint64_t seed) {
    Rng rng(seed);
    PageIOStats stats;
    for (int i = 0; i < 2000; ++i) {
      const auto page =
          static_cast<storage::PageId>(rng.NextBelow(num_pages));
      const std::byte* data = manager->Pin(page, &stats);
      if (std::memcmp(data, file_image.data() + page * page_bytes,
                      page_bytes) != 0) {
        ++mismatches;
      }
      manager->Unpin(page);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back(hammer, 0xC0FFEE + t);
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(manager->AllocatedBytes(), 2 * page_bytes);
  std::remove(path.c_str());
}

// ---------- LRU parity: recency list vs the argmin scan ----------

/// The LRU pool's decisions as they were made before the recency list:
/// each frame stamped with its last-access tick, and the victim found by
/// an argmin scan over every unpinned frame. `PickVictim` and the
/// acquire/evict step are kept verbatim as the parity oracle; the model
/// only tracks page ids, pins and ticks (no bytes).
class ArgminLruModel {
 public:
  explicit ArgminLruModel(size_t max_frames) : max_frames_(max_frames) {}

  struct Access {
    bool ok = false;   ///< false: every frame pinned (TryPin's null)
    bool hit = false;
    storage::PageId evicted = storage::kInvalidPageId;
  };

  /// Pin (or TryPin) of `page`. `pin` = false models CopyOut's hit path
  /// and its transient Pin/Unpin on a miss.
  Access Touch(storage::PageId page, bool pin) {
    Access access;
    if (auto it = page_to_frame_.find(page); it != page_to_frame_.end()) {
      Frame& frame = frames_[it->second];
      frame.pins += pin ? 1 : 0;
      frame.lru_tick = ++tick_;
      ++hits;
      access.ok = access.hit = true;
      return access;
    }
    const size_t index = TryAcquireFrame(&access.evicted);
    if (index == max_frames_) return access;
    Frame& frame = frames_[index];
    frame.page = page;
    frame.pins = pin ? 1 : 0;
    frame.lru_tick = ++tick_;
    page_to_frame_[page] = index;
    ++misses;
    access.ok = true;
    return access;
  }

  /// Whether a blocking Pin/CopyOut of `page` would find a frame now.
  bool CanServe(storage::PageId page) const {
    if (page_to_frame_.count(page) != 0 || frames_.size() < max_frames_) {
      return true;
    }
    return std::any_of(frames_.begin(), frames_.end(),
                       [](const Frame& f) { return f.pins == 0; });
  }

  void Unpin(storage::PageId page) {
    --frames_[page_to_frame_.at(page)].pins;
  }

  /// Pins held on `page`, or nullopt when it is not resident.
  std::optional<uint32_t> PinCount(storage::PageId page) const {
    auto it = page_to_frame_.find(page);
    if (it == page_to_frame_.end()) return std::nullopt;
    return frames_[it->second].pins;
  }

  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;

 private:
  struct Frame {
    storage::PageId page = storage::kInvalidPageId;
    uint32_t pins = 0;
    uint64_t lru_tick = 0;
  };

  size_t PickVictim() {
    size_t victim = max_frames_;
    uint64_t oldest = ~0ull;
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].pins == 0 && frames_[i].lru_tick < oldest) {
        oldest = frames_[i].lru_tick;
        victim = i;
      }
    }
    return victim;
  }

  size_t TryAcquireFrame(storage::PageId* evicted) {
    if (frames_.size() < max_frames_) {
      frames_.emplace_back();
      return frames_.size() - 1;
    }
    const size_t victim = PickVictim();
    if (victim != max_frames_) {
      Frame& frame = frames_[victim];
      if (frame.page != storage::kInvalidPageId) {
        page_to_frame_.erase(frame.page);
        *evicted = frame.page;
        frame.page = storage::kInvalidPageId;
        ++evictions;
      }
    }
    return victim;
  }

  const size_t max_frames_;
  std::vector<Frame> frames_;
  std::unordered_map<storage::PageId, size_t> page_to_frame_;
  uint64_t tick_ = 0;
};

/// Drives a pool and the argmin model through one random trace of
/// `ops` Pin / TryPin / Unpin / CopyOut operations
/// with several pins held at once, checking every eviction's page, the
/// bytes served, and the hit/miss/eviction totals.
void RunLruParityTrace(size_t frames, int ops, uint64_t seed) {
  SCOPED_TRACE("frames " + std::to_string(frames));
  constexpr size_t kPageBytes = 64;
  const auto file_pages = static_cast<storage::PageId>(2 * frames + 16);
  const std::string path = TempPath("lru_parity.pages");
  {
    // Every page carries its own id in its first word.
    std::vector<uint32_t> image(file_pages * kPageBytes / sizeof(uint32_t));
    for (storage::PageId p = 0; p < file_pages; ++p) {
      image[p * kPageBytes / sizeof(uint32_t)] = p;
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), sizeof(uint32_t), image.size(), f),
              image.size());
    std::fclose(f);
  }
  const storage::PageId num_pages = file_pages;
  auto opened = BufferManager::Open(
      path, kPageBytes, num_pages,
      BufferManager::Options{.pool_bytes = frames * kPageBytes});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  BufferManager& pool = *opened.Value();
  ArgminLruModel model(frames);
  PageIOStats stats;
  std::vector<storage::PageId> held;  // pins this trace holds
  const size_t max_held = std::min<size_t>(frames, 6);
  Rng rng(seed);

  auto pick_page = [&]() -> storage::PageId {
    // A hot set smaller than the pool plus a tail larger than it, so
    // hits, misses and evictions all occur.
    if (rng.NextBelow(3) == 0) {
      return static_cast<storage::PageId>(
          rng.NextBelow(std::min<uint64_t>(num_pages, frames / 2 + 1)));
    }
    return static_cast<storage::PageId>(rng.NextBelow(num_pages));
  };
  // `data` is what Pin/TryPin returned (null: TryPin failed).
  auto check_access = [&](const ArgminLruModel::Access& want,
                          storage::PageId page, const std::byte* data) {
    ASSERT_EQ(data != nullptr, want.ok) << "page " << page;
    ASSERT_TRUE(want.ok || held.size() == frames) << "page " << page;
    if (want.evicted != storage::kInvalidPageId) {
      ASSERT_FALSE(pool.PinCount(want.evicted).has_value())
          << "pool kept page " << want.evicted
          << ", which the argmin scan evicts";
    }
    if (data != nullptr) {
      uint32_t stamp = 0;
      std::memcpy(&stamp, data, sizeof(stamp));
      ASSERT_EQ(stamp, page);
    }
  };

  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 25 && held.size() < max_held) {
      const storage::PageId page = pick_page();
      if (!model.CanServe(page)) continue;  // Pin would block
      const auto want = model.Touch(page, /*pin=*/true);
      check_access(want, page, pool.Pin(page, &stats));
      held.push_back(page);
    } else if (kind < 45 && held.size() < max_held) {
      const storage::PageId page = pick_page();
      const auto want = model.Touch(page, /*pin=*/true);
      const std::byte* data = pool.TryPin(page, &stats);
      check_access(want, page, data);
      if (data != nullptr) held.push_back(page);
    } else if (kind < 60 && !held.empty()) {
      const size_t i = rng.NextBelow(held.size());
      pool.Unpin(held[i]);
      model.Unpin(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else {
      const storage::PageId page = pick_page();
      if (!model.CanServe(page)) continue;  // CopyOut would block
      const auto want = model.Touch(page, /*pin=*/false);
      uint32_t stamp = ~0u;
      pool.CopyOut(page, 0, sizeof(stamp), &stamp, &stats);
      ASSERT_EQ(stamp, page);
      ASSERT_TRUE(want.ok);
      if (want.evicted != storage::kInvalidPageId) {
        ASSERT_FALSE(pool.PinCount(want.evicted).has_value());
      }
    }
    ASSERT_EQ(stats.page_hits, model.hits) << "op " << op;
    ASSERT_EQ(stats.page_misses, model.misses) << "op " << op;
    ASSERT_EQ(stats.page_evictions, model.evictions) << "op " << op;
    if (op % 1024 == 0) {
      for (storage::PageId p = 0; p < file_pages; ++p) {
        ASSERT_EQ(pool.PinCount(p), model.PinCount(p))
            << "op " << op << " page " << p;
      }
    }
  }
  for (const storage::PageId page : held) pool.Unpin(page);
  EXPECT_GT(model.evictions, 0u);
  EXPECT_GT(model.hits, 0u);
  const PageIOStats totals = pool.TotalStats();
  EXPECT_EQ(totals.page_hits, model.hits);
  EXPECT_EQ(totals.page_misses, model.misses);
  EXPECT_EQ(totals.page_evictions, model.evictions);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, LruListPicksTheArgminScansVictim) {
  // 4 pools x 30k operations: the tiniest pools run with every frame
  // pinned at times (TryPin fails, Pin is skipped).
  uint64_t seed = 0x1A0;
  for (const size_t frames : {2, 3, 64, 512}) {
    RunLruParityTrace(frames, 30000, seed++);
    if (HasFatalFailure()) return;
  }
}

// ---------- Out-of-core query execution ----------

/// Runs the fig6-style step workload against a paged snapshot >= 4x the
/// pool and checks every result set against brute force on the resident
/// mesh.
TEST(PagedOctopusTest, Fig6WorkloadOnSnapshotFourTimesThePool) {
  const TetraMesh mesh = MakeBox(10);
  const std::string path = TempPath("snap_fig6.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());
  auto header = storage::ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok());
  const size_t pool_bytes =
      std::max<size_t>(header.Value().FileBytes() / 4, 2 * 512);
  ASSERT_GE(header.Value().FileBytes(), 4 * pool_bytes);

  PagedOctopus::Options options;
  options.pool.pool_bytes = pool_bytes;
  auto paged = PagedOctopus::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  // Fig. 6 benchmark-A-style workload (3 steps of 15 queries, 0.01-0.2%
  // selectivity), generated over the same mesh.
  const bench::StepWorkload workload =
      bench::MakeStepWorkload(mesh, 3, 15, 15, 0.0001, 0.002, 0xF16);
  engine::QueryBatchResult results;
  for (const auto& step : workload.per_step) {
    paged.Value()->RangeQueryBatch(step, &results);
    ASSERT_EQ(results.size(), step.size());
    for (size_t q = 0; q < step.size(); ++q) {
      EXPECT_EQ(Sorted(results.per_query[q]),
                BruteForceRangeQuery(mesh, step[q]))
          << "query " << q;
    }
  }
  const auto* pool =
      paged.Value()->store().buffer_manager();
  EXPECT_LE(pool->AllocatedBytes(), pool_bytes);
  EXPECT_GT(paged.Value()->stats().page_io.page_misses, 0u);
  std::remove(path.c_str());
}

TEST(PagedOctopusTest, TinyPoolAndManyThreadsStayExact) {
  const TetraMesh mesh = MakeBox(7);
  const std::string path = TempPath("snap_tinypool.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());

  QueryGenerator gen(mesh);
  Rng rng(3);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 12, 0.001, 0.02);

  // The degenerate 2-page pool, driven by 1 and 4 threads, under the
  // paper's pure OCTOPUS (every box crawled through the evicting pool)
  // and the served route (this small box sends every box to the scan).
  for (const bool route_to_scan : {false, true}) {
    SCOPED_TRACE(route_to_scan ? "routed" : "paper");
    PagedOctopus::Options options;
    options.pool.pool_bytes = 2 * 512;
    options.executor.route_to_scan = route_to_scan;
    auto paged = PagedOctopus::Open(path, options);
    ASSERT_TRUE(paged.ok());
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      engine::ThreadPool pool(threads);
      engine::QueryBatchResult results;
      paged.Value()->ResetStats();
      paged.Value()->RangeQueryBatch(queries, &results,
                                     threads > 1 ? &pool : nullptr);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(Sorted(results.per_query[q]),
                  BruteForceRangeQuery(mesh, queries[q]))
            << "query " << q;
      }
      const PhaseStats& stats = paged.Value()->stats();
      if (route_to_scan) {
        EXPECT_GT(stats.scan_queries, 0u);
      } else {
        EXPECT_GT(stats.crawl_edges, 0u);
        EXPECT_EQ(stats.scan_queries, 0u);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PagedOctopusTest, SingleThreadPageCountersAreDeterministic) {
  const TetraMesh mesh = MakeBox(6);
  const std::string path = TempPath("snap_deterministic.oct2");
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           SnapshotOptions{.page_bytes = 512}).ok());
  QueryGenerator gen(mesh);
  Rng rng(9);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 10, 0.001, 0.01);

  // Crawled (the paper's pure OCTOPUS) and scanned (the served route
  // sends every box of this small box to the scan).
  for (const bool route_to_scan : {false, true}) {
    SCOPED_TRACE(route_to_scan ? "routed" : "paper");
    storage::PageIOStats runs[2];
    for (auto& run : runs) {
      PagedOctopus::Options options;
      options.pool.pool_bytes = 4 * 512;
      options.executor.route_to_scan = route_to_scan;
      auto paged = PagedOctopus::Open(path, options);
      ASSERT_TRUE(paged.ok());
      engine::QueryBatchResult results;
      paged.Value()->RangeQueryBatch(queries, &results);
      run = paged.Value()->stats().page_io;
      EXPECT_GT(run.PageAccesses(), 0u);
      EXPECT_GT(route_to_scan ? paged.Value()->stats().scan_queries
                              : paged.Value()->stats().crawl_edges,
                0u);
    }
    EXPECT_EQ(runs[0].page_hits, runs[1].page_hits);
    EXPECT_EQ(runs[0].page_misses, runs[1].page_misses);
    EXPECT_EQ(runs[0].page_evictions, runs[1].page_evictions);
  }
  std::remove(path.c_str());
}

// ---------- Hilbert clustering ----------

TEST(HilbertLayoutTest, HilbertSnapshotMissesFewerPagesThanShuffled) {
  // Compare page misses of the same query workload over (a) a snapshot
  // of the mesh in deterministic arbitrary order and (b) the
  // Hilbert-clustered snapshot, both under the same small pool.
  const TetraMesh base = MakeBox(12);
  const TetraMesh shuffled = Shuffled(base, 0xBADC0DE);

  const std::string shuffled_path = TempPath("snap_shuffled.oct2");
  const std::string hilbert_path = TempPath("snap_hilbert.oct2");
  ASSERT_TRUE(SaveSnapshot(shuffled, shuffled_path,
                           SnapshotOptions{.page_bytes = 512}).ok());
  ASSERT_TRUE(
      SaveSnapshot(shuffled, hilbert_path,
                   SnapshotOptions{.page_bytes = 512,
                                   .layout = SnapshotLayout::kHilbert})
          .ok());
  auto hilbert_header = storage::ReadSnapshotHeader(hilbert_path);
  ASSERT_TRUE(hilbert_header.ok());
  EXPECT_EQ(static_cast<SnapshotLayout>(hilbert_header.Value().layout),
            SnapshotLayout::kHilbert);

  // One spatial workload for both runs: the boxes are position-defined
  // and vertex positions are preserved by any permutation.
  QueryGenerator gen(base);
  Rng rng(17);
  const std::vector<AABB> queries = gen.MakeQueries(&rng, 20, 0.001, 0.01);

  auto misses_on = [&queries](const std::string& path,
                              const TetraMesh& mesh) {
    PagedOctopus::Options options;
    options.pool.pool_bytes = 8 * 512;
    auto paged = PagedOctopus::Open(path, options);
    EXPECT_TRUE(paged.ok());
    engine::QueryBatchResult results;
    paged.Value()->RangeQueryBatch(queries, &results);
    // Sanity: exactness is layout-independent.
    size_t total = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      total += results.per_query[q].size();
      EXPECT_EQ(results.per_query[q].size(),
                BruteForceRangeQuery(mesh, queries[q]).size());
    }
    EXPECT_GT(total, 0u);
    return paged.Value()->stats().page_io.page_misses;
  };

  const size_t shuffled_misses = misses_on(shuffled_path, shuffled);
  const size_t hilbert_misses = misses_on(
      hilbert_path, ApplyPermutation(shuffled,
                                     ComputeHilbertOrder(shuffled)));
  EXPECT_LT(hilbert_misses, shuffled_misses);
  std::remove(shuffled_path.c_str());
  std::remove(hilbert_path.c_str());
}

}  // namespace
}  // namespace octopus
