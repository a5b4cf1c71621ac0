// Copyright 2026 The OCTOPUS Reproduction Authors
// octobench: the repository benchmark. One process runs the real
// in-process `server::QueryServer` the way `octopus_cli serve --deform`
// builds it (ConfigureRetention, BindDeformer, Start/Run), drives the
// SIMULATE side itself by calling `AdvanceStep` from one stepper thread
// on a fixed period, and generates all load from one thread over four
// OCTP connections. The load thread speaks server/protocol.h directly so
// requests can be pipelined: `RemoteClient` allows one request in flight
// per connection, which would turn an open loop into a closed one.
//
// Every number is taken from outside the layers: the bench times its own
// calls and takes deltas of public counters (`MetricsSnapshot`, the
// buffer pool's `TotalStats`, the epoch store's accessors, the flight
// recorder). A run is:
//   1. set-up, timed (median of kSetupRepeats set-ups: the serving one
//      and the rest spread over the window, between its cycles); all
//      inputs are generated from --seed before the server starts;
//   2. kWarmupCycles unmeasured cycles of the traffic below;
//   3. the measured window: cycles of kCycleSeconds, each an open-loop
//      segment (Poisson arrivals at a light rate, every request timed
//      from its scheduled send time) and then a burst segment (bursts of
//      one full batch, kBurstQueries queries sent at once, each timed from
//      its send to its last answer);
//   4. drain, then verification of every kVerifyEvery-th completed
//      request: bit-for-bit against the in-process engine replayed to the
//      response's epoch, and recall against an exact count of the
//      epoch's positions inside each box.
//
// The timing metrics are medians over the window's segments and bursts:
// a shared host slows a process for seconds at a time, and the short
// alternating segments spread such a slowdown over both kinds of traffic,
// where the median of many samples reads past it. The settings keep the
// process steady too (see the README's design notes): one engine and one
// I/O thread, so the server never has more runnable threads than the
// host has cores; a load thread that spins through the last
// kSpinLeadNanos before each open-loop send, because a timer wake-up on a
// shared host can come late; and one deformer trajectory for every seed,
// because the trajectory sets how far the stale index drifts and so how
// much walking each query does.
//
//   bench_octobench --workload NAME --seed N --seconds S [--traced]
//                   [--out DIR] [--git-sha SHA]
//
// --traced repeats the workload with the flight recorder sized for every
// request, a journal, and bench-side spans; it reports the per-layer
// metrics, writes one merged Chrome trace and each request's latency
// budget. The last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}; the full record (provenance, every
// metric, checks, budget) goes to DIR/<workload>-s<seed>[-traced].json.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "obs/event_journal.h"
#include "obs/trace.h"
#include "octopus/query_executor.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/versioned_backend.h"
#include "sim/deformer.h"
#include "sim/deformer_spec.h"
#include "sim/workload.h"

#ifndef OCTOBENCH_BUILD_TYPE
#define OCTOBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace octopus;

// --- Fixed settings, shared by every workload -------------------------

constexpr int kEngineThreads = 1;
constexpr int kIoThreads = 1;
constexpr int kConnections = 4;
/// A cycle: kOpenSegmentSeconds of open-loop traffic, then bursts for
/// kBurstSegmentSeconds (a burst that starts in time runs to its end).
constexpr double kOpenSegmentSeconds = 1.5;
constexpr double kBurstSegmentSeconds = 0.5;
constexpr double kCycleSeconds = kOpenSegmentSeconds + kBurstSegmentSeconds;
constexpr int kWarmupCycles = 1;
/// A burst is one batch at the scheduler's size cap, so the batch starts
/// on the size trigger, not the coalescing window.
constexpr size_t kBurstQueries = server::SchedulerOptions{}.max_batch_queries;
/// Open-loop arrival rate. Light on purpose: requests rarely overlap, so
/// the segment measures a lone request's path (coalescing window, engine,
/// hand-offs) and not queueing, which would amplify the host's speed.
constexpr double kOpenRate = 50.0;
/// The load thread sleeps until this long before each open-loop send and
/// spins through the rest.
constexpr int64_t kSpinLeadNanos = 2'000'000;
/// Latency limit: half a 100 ms step — a later answer describes a mesh
/// the simulation has already moved on from.
constexpr int64_t kSloNanos = 50'000'000;
constexpr int64_t kRequestTimeoutNanos = 5'000'000'000;
constexpr int kVerifyEvery = 4;
constexpr int kSetupRepeats = 5;
/// Requests the bursts cycle through (pre-generated like every other
/// input).
constexpr size_t kBurstPoolRequests = 1024;
constexpr uint32_t kMaxHistoryAge = 32;  // steps; ages are uniform 1..32
constexpr size_t kPagedPoolBytes = 2u << 20;
constexpr size_t kSnapshotPageBytes = 4096;
constexpr size_t kTracedRingSlots = 1u << 20;
constexpr size_t kTracedJournalSlots = 4096;
/// The deformer trajectory, the same for every --seed: like the mesh, it
/// is part of the dataset. Trajectories differ in how far the stale index
/// drifts, and with it the walk work per query (4 to 35 walked vertices
/// per query on neuro L0 between two seeds).
constexpr uint64_t kDeformerSeed = 1;

struct Workload {
  const char* name;
  int neuro_level;  ///< MakeNeuroMesh level at scale 1
  bool paged;       ///< OCT2 snapshot over a kPagedPoolBytes pool
  int step_ms;      ///< AdvanceStep period
  int queries;      ///< per request
  double sel_lo, sel_hi;
  /// Share of requests sent at an epoch 1..kMaxHistoryAge steps old.
  double historical_share;
};

/// The L3 workloads step every 200 ms: each of their steps spills a
/// ~1.2 MB epoch to the sidecar, and the step times the write.
const Workload kWorkloads[] = {
    {"monitor", 0, false, 100, 16, 0.0011, 0.0016, 0.0},
    {"crawl-wide", 3, false, 200, 8, 0.02, 0.04, 0.0},
    {"history-paged", 3, true, 200, 16, 0.0011, 0.0016, 0.3},
};

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t UnixNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// CPU time on `clock` (a process or thread CPU clock), in nanos. These
/// clocks advance only while the thread (or some thread of the process)
/// runs, so they leave out the time the host or other threads take the
/// processor away.
int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p * static_cast<double>(values->size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values->size())));
  return (*values)[index - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Inputs -----------------------------------------------------------

struct Request {
  std::vector<AABB> boxes;
  uint32_t age = 0;  ///< steps behind the current epoch; 0 = current
};

struct Inputs {
  std::vector<Request> open;  ///< the open-loop schedule, in send order
  /// Send offsets on the open-loop clock, which runs only during open
  /// segments: segment k covers [k, k + 1) * kOpenSegmentSeconds.
  std::vector<int64_t> due;
  std::vector<Request> burst;
};

/// Everything a run sends, derived from `seed` alone (plus the mesh the
/// query boxes are placed in). Independent streams per input kind. The
/// burst pool holds the same mix of requests as the open loop.
Inputs MakeInputs(const Workload& w, const TetraMesh& mesh, uint64_t seed,
                  double open_until_seconds) {
  Rng query_rng(seed * 8 + 1);
  Rng arrival_rng(seed * 8 + 2);
  Rng age_rng(seed * 8 + 3);
  const QueryGenerator generator(mesh);
  auto make = [&] {
    Request r;
    r.boxes = generator.MakeQueries(&query_rng, w.queries, w.sel_lo,
                                    w.sel_hi);
    if (w.historical_share > 0.0 &&
        age_rng.NextDouble() < w.historical_share) {
      r.age = 1 + static_cast<uint32_t>(age_rng.NextBelow(kMaxHistoryAge));
    }
    return r;
  };
  Inputs in;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - arrival_rng.NextDouble()) / kOpenRate;
    if (t >= open_until_seconds) break;
    in.due.push_back(static_cast<int64_t>(t * 1e9));
    in.open.push_back(make());
  }
  for (size_t i = 0; i < kBurstPoolRequests; ++i) in.burst.push_back(make());
  return in;
}

// --- The system under test --------------------------------------------

struct SetupTime {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< the process's (no server thread runs yet)
};

/// One set-up of the server: the backend built the way `octopus_cli
/// serve --deform` builds it, wrapped in a started `QueryServer`.
class Service {
 public:
  Service(const Workload& w, const std::string& file_prefix, bool traced)
      : w_(w),
        traced_(traced),
        snapshot_path_(file_prefix + ".oct2"),
        sidecar_path_(file_prefix + ".oct2d"),
        journal_(traced ? kTracedJournalSlots : 0) {}

  ~Service() {
    Shutdown();
    server_.reset();  // the epoch store removes its sidecar here
    std::remove(snapshot_path_.c_str());
    std::remove(sidecar_path_.c_str());
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Mesh generation, (paged) snapshot write, index build, retention,
  /// deformer binding and listen — the set-up users pay. `on_mesh` runs
  /// untimed between generation and the rest (input generation).
  Status SetUp(const std::function<void(const TetraMesh&)>& on_mesh,
               SetupTime* time) {
    Timer timer;
    int64_t cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    auto generated = MakeNeuroMesh(w_.neuro_level, 1.0);
    if (!generated.ok()) return generated.status();
    TetraMesh mesh = generated.MoveValue();
    int64_t nanos = timer.ElapsedNanos();
    int64_t cpu_nanos = CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu;
    if (on_mesh) on_mesh(mesh);
    timer.Restart();
    cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);

    spec_.kind = DeformerKind::kPlasticity;
    spec_.amplitude = DefaultAmplitude(EstimateMeanEdgeLength(mesh));
    spec_.seed = kDeformerSeed;
    num_vertices_ = mesh.num_vertices();
    std::unique_ptr<server::VersionedBackend> backend;
    if (w_.paged) {
      // Original layout: vertex ids stay the mesh's, so verification
      // compares ids exactly.
      OCTOPUS_RETURN_NOT_OK(SaveSnapshot(
          mesh, snapshot_path_,
          storage::SnapshotOptions{.page_bytes = kSnapshotPageBytes}));
      mesh = TetraMesh();  // the paged server holds no resident mesh
      auto opened = server::VersionedBackend::OpenSnapshot(
          snapshot_path_, kPagedPoolBytes, kEngineThreads);
      if (!opened.ok()) return opened.status();
      backend = opened.MoveValue();
    } else {
      backend = server::VersionedBackend::FromMesh(std::move(mesh),
                                                   kEngineThreads);
    }
    if (journal_.enabled()) backend->AttachJournal(&journal_);
    server::EpochRetentionOptions retention;
    retention.spill_path = sidecar_path_;
    OCTOPUS_RETURN_NOT_OK(backend->ConfigureRetention(retention));
    OCTOPUS_RETURN_NOT_OK(backend->BindDeformer(spec_));

    options_.io_threads = kIoThreads;
    options_.trace_ring_slots = traced_ ? kTracedRingSlots : 0;
    options_.journal = journal_.enabled() ? &journal_ : nullptr;
    server_ = std::make_unique<server::QueryServer>(std::move(backend),
                                                    options_);
    OCTOPUS_RETURN_NOT_OK(server_->Start());
    nanos += timer.ElapsedNanos();
    cpu_nanos += CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu;
    time->wall_seconds = static_cast<double>(nanos) / 1e9;
    time->cpu_seconds = static_cast<double>(cpu_nanos) / 1e9;
    return Status::OK();
  }

  void Run() {
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  /// Graceful stop; returns what `QueryServer::Run` returned.
  Status Shutdown() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
    return run_status_;
  }

  server::QueryServer& server() { return *server_; }
  server::VersionedBackend* backend() { return server_->backend(); }
  const obs::EventJournal& journal() const { return journal_; }
  const DeformerSpec& spec() const { return spec_; }
  const server::ServerOptions& options() const { return options_; }
  uint64_t num_vertices() const { return num_vertices_; }
  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& sidecar_path() const { return sidecar_path_; }

 private:
  const Workload& w_;
  const bool traced_;
  const std::string snapshot_path_;
  const std::string sidecar_path_;
  obs::EventJournal journal_;  // outlives server_
  DeformerSpec spec_;
  server::ServerOptions options_;
  uint64_t num_vertices_ = 0;
  std::unique_ptr<server::QueryServer> server_;
  Status run_status_;
  std::thread thread_;
};

// --- The SIMULATE side ------------------------------------------------

struct StepRecord {
  int64_t start = 0;
  int64_t nanos = 0;
  int64_t cpu_nanos = 0;  ///< the stepper thread's CPU time in the step
  uint32_t step = 0;
  uint64_t pages_rewritten = 0;
};

/// Advances the backend one step per period from its own thread, timing
/// each `AdvanceStep`. A step that overruns its period delays the next
/// one instead of triggering a burst. `Pause` holds it between steps.
class Stepper {
 public:
  Stepper(server::VersionedBackend* backend, int64_t period_nanos)
      : backend_(backend), period_(period_nanos) {
    records_.reserve(4096);
  }
  ~Stepper() { Stop(); }
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
    pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_);
  }

  /// The stepper thread's CPU clock (valid after `Start`).
  clockid_t cpu_clock() const { return cpu_clock_; }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Returns once no step runs; none starts until `Resume`.
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.notify_all();
    while (stepping_) cv_.wait(lock);
  }

  /// Steps again, the next one a full period from now.
  void Resume() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = false;
    }
    cv_.notify_all();
  }

  /// Valid after `Stop`.
  const std::vector<StepRecord>& records() const { return records_; }

 private:
  void Loop() {
    int64_t next = Now() + period_;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      const auto deadline = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(next));
      cv_.wait_until(lock, deadline, [&] { return stop_ || paused_; });
      if (stop_) return;
      if (paused_) {
        while (paused_ && !stop_) cv_.wait(lock);
        next = Now() + period_;
        continue;
      }
      stepping_ = true;
      lock.unlock();
      StepRecord rec;
      rec.start = Now();
      const int64_t cpu = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
      const engine::EpochInfo info = backend_->AdvanceStep();
      rec.nanos = Now() - rec.start;
      rec.cpu_nanos = CpuNanos(CLOCK_THREAD_CPUTIME_ID) - cpu;
      rec.step = info.step;
      rec.pages_rewritten = backend_->last_step_pages_rewritten();
      lock.lock();
      records_.push_back(rec);
      stepping_ = false;
      cv_.notify_all();
      next = std::max(next + period_, Now());
    }
  }

  server::VersionedBackend* const backend_;
  const int64_t period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;      // guarded by mu_
  bool paused_ = false;    // guarded by mu_
  bool stepping_ = false;  // guarded by mu_
  std::vector<StepRecord> records_;  // written by the stepper under mu_
  std::thread thread_;
  clockid_t cpu_clock_ = CLOCK_THREAD_CPUTIME_ID;
};

// --- The load generator -----------------------------------------------

enum class Phase : uint8_t { kOpen, kBurst };

/// One request as the client saw it. Times are steady-clock nanos.
struct Call {
  const Request* request = nullptr;
  Phase phase = Phase::kOpen;
  uint8_t conn = 0;
  uint16_t cycle = 0;  ///< the cycle it was sent in
  bool measured = false;  ///< sent in the window (not warm-up)
  bool in_flight = false;  ///< counted in its connection's outstanding
  bool done = false;
  bool failed = false;
  bool verify = false;
  /// Why it failed: an OCTP ErrorCode, or kTimedOut / kTransport.
  uint16_t failure = 0;
  uint64_t wire_epoch = 0;
  int64_t due = 0;         ///< scheduled send time (burst: send time)
  int64_t send_start = 0;  ///< encode + write began
  int64_t send_end = 0;
  int64_t first_byte = 0;  ///< first byte of the response frame read
  int64_t finish = 0;      ///< response parsed (or failure noticed)
  uint64_t result_bytes = 0;
  uint32_t digest_begin = 0;  ///< first of its digests (verified calls)
  server::BatchStatsWire stats;
};

constexpr uint16_t kTimedOut = 100;
constexpr uint16_t kTransport = 101;

/// Verified calls keep only a digest per query, so verification adds no
/// result vectors to the measured process.
struct QueryDigest {
  uint64_t hash = 0;
  uint32_t count = 0;
};

uint64_t HashIds(std::span<const VertexId> ids) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the 32-bit ids
  for (const VertexId id : ids) {
    h ^= id;
    h *= 0x100000001B3ull;
  }
  return h;
}

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// One stretch of traffic: an open-loop segment (until its last answer)
/// or a burst (from its first send to its last answer).
struct Segment {
  bool burst = false;
  bool measured = false;  ///< inside the window (not warm-up)
  uint16_t cycle = 0;
  int64_t start = 0;
  int64_t end = 0;
  /// The server's CPU time over [start, end): the process's, less the
  /// load thread's and the stepper's.
  int64_t server_cpu_nanos = 0;
  uint64_t queries = 0;  ///< answered
};

/// Single-threaded load client over kConnections pipelined connections,
/// driven by epoll. In an open-loop segment it sleeps on a timerfd until
/// kSpinLeadNanos before the next scheduled send and polls without
/// sleeping from there, so each request leaves on time: a timer wake-up
/// on a shared host can come late, which would time the host's scheduler
/// rather than the server. Bursts and drains sleep in epoll.
class LoadClient {
 public:
  LoadClient(server::VersionedBackend* backend, bool traced,
             size_t expected_calls)
      : backend_(backend), traced_(traced) {
    calls_.reserve(expected_calls);
  }

  ~LoadClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    if (timer_fd_ >= 0) close(timer_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(uint16_t port) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0) return Errno("timerfd_create");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTimerTag;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
      return Errno("epoll_ctl(timer)");
    }
    conns_.resize(kConnections);
    for (uint32_t i = 0; i < conns_.size(); ++i) {
      OCTOPUS_RETURN_NOT_OK(Handshake(port, &conns_[i].fd));
      ev.events = EPOLLIN;
      ev.data.u32 = i;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev) != 0) {
        return Errno("epoll_ctl(conn)");
      }
    }
    return Status::OK();
  }

  /// Sends every scheduled request whose open-loop offset falls in
  /// `cycle`'s segment, at its due time: the segment runs from `start`
  /// for kOpenSegmentSeconds. Returns when the segment ends.
  void RunOpen(const Inputs& in, int64_t start, uint16_t cycle) {
    const int64_t segment = static_cast<int64_t>(kOpenSegmentSeconds * 1e9);
    const int64_t base = start - cycle * segment;  // open-loop clock zero
    const int64_t until = start + segment;
    while (true) {
      int64_t now = Now();
      while (next_open_ < in.due.size() &&
             base + in.due[next_open_] <= now &&
             base + in.due[next_open_] < until) {
        Send(&in.open[next_open_], base + in.due[next_open_], Phase::kOpen,
             cycle, static_cast<int>(next_open_ % conns_.size()));
        ++next_open_;
        now = Now();
      }
      if (now >= until) return;
      int64_t deadline = until;
      if (next_open_ < in.due.size()) {
        deadline = std::min(deadline, base + in.due[next_open_]);
      }
      if (deadline - now > kSpinLeadNanos) {
        Wait(deadline - kSpinLeadNanos);
        continue;
      }
      while (Poll(0) == 0 && Now() < deadline) {
      }
      ExpireTimeouts(Now());
    }
  }

  /// Sends kBurstQueries queries' worth of requests at once, spread over
  /// the connections, and waits for every answer. Each connection's
  /// requests leave in one write, so the whole burst reaches the server
  /// well inside the coalescing window.
  Segment RunBurst(const Inputs& in, uint16_t cycle) {
    Segment burst;
    burst.burst = true;
    burst.cycle = cycle;
    burst.start = Now();
    const size_t first = calls_.size();
    for (size_t queries = 0, i = 0; queries < kBurstQueries; ++i) {
      const Request* r = &in.burst[next_burst_++ % in.burst.size()];
      Send(r, Now(), Phase::kBurst, cycle,
           static_cast<int>(i % conns_.size()), /*flush=*/false);
      queries += r->boxes.size();
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].fd >= 0) Flush(static_cast<int>(c));
    }
    AwaitAll(burst.start + kRequestTimeoutNanos, kBurstNudgeNanos);
    for (size_t i = first; i < calls_.size(); ++i) {
      const Call& call = calls_[i];
      burst.end = std::max(burst.end, call.finish);
      if (!call.failed) burst.queries += call.request->boxes.size();
    }
    return burst;
  }

  /// Waits for every outstanding answer until `deadline`. When no answer
  /// has come for `nudge`, it sends a STATS request on a connection that
  /// still owes answers (the next one each time): a server I/O thread can
  /// miss the wakeup for a frame posted to its inbox between
  /// `ProcessInbox` and its eventfd read (IoLoop drains the eventfd after
  /// swapping the inbox), and the frame then waits for the thread's next
  /// socket event — which, once the load pauses, does not come. Any event
  /// wakes the thread, and a woken thread delivers its whole inbox. In an
  /// open-loop segment the next request is that event, so there the race
  /// shows in the measured latency tail.
  void AwaitAll(int64_t deadline, int64_t nudge = kNudgeNanos) {
    uint64_t answered = answered_;
    int64_t quiet_until = Now() + nudge;
    size_t next = 0;
    while (outstanding_total() > 0 && Now() < deadline) {
      Wait(std::min(deadline, quiet_until));
      const int64_t now = Now();
      if (answered_ != answered) {
        answered = answered_;
        quiet_until = now + nudge;
        continue;
      }
      if (now < quiet_until) continue;
      quiet_until = now + nudge;
      for (size_t i = 0; i < conns_.size(); ++i) {
        const size_t c = next++ % conns_.size();
        if (conns_[c].fd >= 0 && conns_[c].outstanding > 0) {
          server::AppendStatsRequest(&conns_[c].out);
          Flush(static_cast<int>(c));
          break;
        }
      }
    }
  }

  /// Waits for every outstanding answer until `deadline`; whatever is
  /// still missing then fails as a timeout.
  void Drain(int64_t deadline) {
    AwaitAll(deadline);
    const int64_t now = Now();
    for (Call& call : calls_) {
      if (!call.done) Fail(&call, now, kTimedOut);
    }
  }

  std::vector<Call>& calls() { return calls_; }
  const std::vector<QueryDigest>& digests() const { return digests_; }

 private:
  static constexpr uint32_t kTimerTag = 0xFFFFFFFFu;
  static constexpr int64_t kNudgeNanos = 50'000'000;
  /// A burst's last answer sets its time, so a lost wakeup (see
  /// AwaitAll) may cost it at most this much.
  static constexpr int64_t kBurstNudgeNanos = 2'000'000;

  struct Conn {
    int fd = -1;
    server::Buffer out;
    size_t out_off = 0;
    bool want_write = false;
    std::vector<uint8_t> in;
    size_t in_off = 0;
    int64_t frame_first_byte = 0;
    int outstanding = 0;
  };

  static Status WriteAll(int fd, const server::Buffer& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Errno("send");
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  static Status ReadExact(int fd, uint8_t* dst, size_t len) {
    size_t off = 0;
    while (off < len) {
      const ssize_t n = recv(fd, dst + off, len - off, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("handshake: connection closed");
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// Blocking connect + HELLO/WELCOME, then the socket goes non-blocking.
  static Status Handshake(uint16_t port, int* fd_out) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket");
    *fd_out = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      return Errno("connect");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    server::Buffer hello;
    server::AppendHello(&hello, server::HelloFrame{});
    OCTOPUS_RETURN_NOT_OK(WriteAll(fd, hello));
    uint8_t header[server::kFrameHeaderBytes];
    OCTOPUS_RETURN_NOT_OK(ReadExact(fd, header, sizeof(header)));
    auto parsed = server::ParseFrameHeader(header);
    if (!parsed.ok()) return parsed.status();
    std::vector<uint8_t> payload(parsed.Value().payload_bytes);
    OCTOPUS_RETURN_NOT_OK(ReadExact(fd, payload.data(), payload.size()));
    server::WelcomeFrame welcome;
    if (parsed.Value().type != server::FrameType::kWelcome ||
        !server::ParseWelcome(payload, &welcome).ok()) {
      return Status::IOError("handshake: expected WELCOME");
    }
    if (fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      return Errno("fcntl(O_NONBLOCK)");
    }
    return Status::OK();
  }

  int outstanding_total() const {
    int n = 0;
    for (const Conn& c : conns_) n += c.outstanding;
    return n;
  }

  /// Encodes one request and, with `flush`, writes it out; the call's
  /// send span covers what was done.
  void Send(const Request* request, int64_t due, Phase phase, uint16_t cycle,
            int c, bool flush = true) {
    Conn& conn = conns_[c];
    const uint64_t id = calls_.size() + 1;
    Call& call = calls_.emplace_back();
    call.request = request;
    call.phase = phase;
    call.conn = static_cast<uint8_t>(c);
    call.cycle = cycle;
    call.measured = cycle >= kWarmupCycles;
    call.due = due;
    call.send_start = Now();
    if (conn.fd < 0) {
      Fail(&call, call.send_start, kTransport);
      return;
    }
    if (request->age > 0) {
      const uint64_t current = backend_->CurrentEpoch().epoch;
      call.wire_epoch = current > request->age ? current - request->age : 1;
    }
    server::AppendQueryBatch(&conn.out, id, request->boxes, call.wire_epoch,
                             traced_ ? id : 0);
    call.in_flight = true;
    ++conn.outstanding;
    pending_.push_back(id);
    if (flush) Flush(c);
    call.send_end = Now();
  }

  /// Marks `call` answered (or failed) and releases its in-flight slot.
  void Finish(Call* call, int64_t now) {
    ++answered_;
    call->done = true;
    call->finish = now;
    if (call->in_flight) {
      call->in_flight = false;
      --conns_[call->conn].outstanding;
    }
  }

  void Flush(int c) {
    Conn& conn = conns_[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    const bool want = conn.out_off < conn.out.size();
    if (want != conn.want_write) {
      conn.want_write = want;
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = static_cast<uint32_t>(c);
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    }
  }

  /// One epoll round, woken at the latest by `deadline`.
  void Wait(int64_t deadline) {
    itimerspec spec{};
    const int64_t at = std::max<int64_t>(deadline, 1);
    spec.it_value.tv_sec = at / 1'000'000'000;
    spec.it_value.tv_nsec = at % 1'000'000'000;
    timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    Poll(-1);
    ExpireTimeouts(Now());
  }

  /// One epoll_wait (`timeout_ms` as there) and its events handled;
  /// returns how many events there were.
  int Poll(int timeout_ms) {
    epoll_event events[kConnections + 1];
    const int n = epoll_wait(epoll_fd_, events, kConnections + 1, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const uint32_t tag = events[i].data.u32;
      if (tag == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      if (conns_[tag].fd < 0) continue;
      if (events[i].events & EPOLLOUT) Flush(static_cast<int>(tag));
      if (conns_[tag].fd >= 0 &&
          (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
        Read(static_cast<int>(tag));
      }
    }
    return n;
  }

  void Read(int c) {
    Conn& conn = conns_[c];
    while (true) {
      const size_t pending_before = conn.in.size() - conn.in_off;
      const ssize_t n = recv(conn.fd, scratch_.data(), scratch_.size(), 0);
      if (n > 0) {
        conn.in.insert(conn.in.end(), scratch_.data(), scratch_.data() + n);
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        CloseConn(c);
        return;
      }
      const int64_t read_at = Now();
      if (pending_before == 0) conn.frame_first_byte = read_at;
      while (conn.in.size() - conn.in_off >= server::kFrameHeaderBytes) {
        const std::span<const uint8_t> avail(conn.in.data() + conn.in_off,
                                             conn.in.size() - conn.in_off);
        auto header = server::ParseFrameHeader(avail);
        if (!header.ok()) {
          CloseConn(c);
          return;
        }
        const size_t frame =
            server::kFrameHeaderBytes + header.Value().payload_bytes;
        if (avail.size() < frame) break;
        OnFrame(c, header.Value().type,
                avail.subspan(server::kFrameHeaderBytes,
                              header.Value().payload_bytes),
                frame);
        if (conns_[c].fd < 0) return;
        conn.in_off += frame;
        // Whatever follows arrived with this read (or is still to come).
        conn.frame_first_byte = read_at;
      }
      if (conn.in_off == conn.in.size()) {
        conn.in.clear();
        conn.in_off = 0;
      } else if (conn.in_off > (1u << 20)) {
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() + static_cast<ptrdiff_t>(conn.in_off));
        conn.in_off = 0;
      }
    }
  }

  void OnFrame(int c, server::FrameType type,
               std::span<const uint8_t> payload, size_t frame_bytes) {
    Conn& conn = conns_[c];
    if (type == server::FrameType::kResult) {
      uint64_t id = 0;
      server::BatchStatsWire stats;
      if (!server::ParseResult(payload, &id, &stats, &per_query_).ok() ||
          id == 0 || id > calls_.size()) {
        CloseConn(c);
        return;
      }
      Call& call = calls_[id - 1];
      if (call.done) return;  // timed out earlier; stays failed
      call.first_byte = conn.frame_first_byte;
      call.stats = stats;
      call.result_bytes = frame_bytes;
      if (ok_completions_++ % kVerifyEvery == 0) {
        call.verify = true;
        call.digest_begin = static_cast<uint32_t>(digests_.size());
        for (const auto& ids : per_query_) {
          digests_.push_back(
              {HashIds(ids), static_cast<uint32_t>(ids.size())});
        }
      }
      Finish(&call, Now());
      return;
    }
    if (type == server::FrameType::kStats) return;  // a drain nudge
    if (type == server::FrameType::kError) {
      server::ErrorFrame error;
      if (server::ParseError(payload, &error).ok() && error.request_id != 0 &&
          error.request_id <= calls_.size()) {
        Call& call = calls_[error.request_id - 1];
        if (!call.done) Fail(&call, Now(), static_cast<uint16_t>(error.code));
        return;
      }
    }
    CloseConn(c);  // a connection-level error or an unexpected frame
  }

  void Fail(Call* call, int64_t now, uint16_t why) {
    call->failed = true;
    call->failure = why;
    Finish(call, now);
  }

  void ExpireTimeouts(int64_t now) {
    while (!pending_.empty()) {
      Call& call = calls_[pending_.front() - 1];
      if (!call.done && now - call.send_start < kRequestTimeoutNanos) break;
      if (!call.done) Fail(&call, now, kTimedOut);
      pending_.pop_front();
    }
  }

  void CloseConn(int c) {
    Conn& conn = conns_[c];
    if (conn.fd < 0) return;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    close(conn.fd);
    conn.fd = -1;
    const int64_t now = Now();
    for (Call& call : calls_) {
      if (!call.done && call.conn == c) Fail(&call, now, kTransport);
    }
  }

  server::VersionedBackend* const backend_;
  const bool traced_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Call> calls_;
  std::vector<QueryDigest> digests_;
  std::deque<uint64_t> pending_;  ///< call ids in send order
  std::vector<std::vector<VertexId>> per_query_;  // decode scratch
  std::vector<uint8_t> scratch_ = std::vector<uint8_t>(256u << 10);
  size_t next_open_ = 0;
  size_t next_burst_ = 0;
  uint64_t answered_ = 0;  ///< calls finished (answered or failed)
  uint64_t ok_completions_ = 0;
};

// --- Counters read at the window edges --------------------------------

struct Counters {
  int64_t at = 0;
  server::ServerMetrics metrics;
  PhaseStats engine;
  storage::PageIOStats pool;
  uint64_t spill_bytes = 0;
  uint64_t evicted = 0;
};

Counters ReadCounters(Service& svc) {
  Counters c;
  c.at = Now();
  c.metrics = svc.server().MetricsSnapshot();
  c.engine = c.metrics.EngineTotal();
  if (const storage::BufferManager* pool = svc.backend()->buffer_manager()) {
    c.pool = pool->TotalStats();
  }
  if (const server::EpochStore* store = svc.backend()->epoch_store()) {
    c.spill_bytes = store->spill_bytes_written();
    c.evicted = store->epochs_evicted();
  }
  return c;
}

/// Peak RSS (VmHWM) in MiB since the last `ResetPeakRss`.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the window's peak excludes
/// set-up and warm-up.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                      : 0;
}

// --- Verification -----------------------------------------------------

struct Verification {
  size_t requests = 0;
  size_t queries = 0;
  size_t mismatches = 0;
  uint64_t returned = 0;  ///< in-box vertices the responses returned
  uint64_t truth = 0;     ///< in-box vertices by brute-force scan
  double seconds = 0.0;
};

/// Exact in-box vertex counts over one epoch's positions: a uniform grid
/// bucketing of the positions, so a box tests only the vertices of the
/// cells it overlaps instead of every vertex (same answer as a linear
/// scan — cell indices are monotone in the coordinate).
class PointGrid {
 public:
  void Build(std::span<const Vec3> points) {
    points_ = points;
    bounds_ = AABB();
    for (const Vec3& p : points) bounds_.Extend(p);
    const Vec3 extent = bounds_.Extent();
    for (int a = 0; a < 3; ++a) {
      inv_cell_[a] = Coord(extent, a) > 0 ? kCells / Coord(extent, a) : 0.0f;
    }
    starts_.assign(kCells * kCells * kCells + 1, 0);
    cell_of_.resize(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      cell_of_[i] = CellIndex(points[i]);
      ++starts_[cell_of_[i] + 1];
    }
    for (size_t c = 1; c < starts_.size(); ++c) starts_[c] += starts_[c - 1];
    order_.resize(points.size());
    std::vector<uint32_t> fill(starts_.begin(), starts_.end() - 1);
    for (size_t i = 0; i < points.size(); ++i) {
      order_[fill[cell_of_[i]]++] = static_cast<uint32_t>(i);
    }
  }

  uint64_t CountInside(const AABB& box) const {
    int lo[3], hi[3];
    for (int a = 0; a < 3; ++a) {
      lo[a] = Axis(Coord(box.min, a), a);
      hi[a] = Axis(Coord(box.max, a), a);
    }
    uint64_t inside = 0;
    for (int x = lo[0]; x <= hi[0]; ++x) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        for (int z = lo[2]; z <= hi[2]; ++z) {
          const size_t c = (static_cast<size_t>(x) * kCells + y) * kCells + z;
          for (uint32_t k = starts_[c]; k < starts_[c + 1]; ++k) {
            inside += box.Contains(points_[order_[k]]);
          }
        }
      }
    }
    return inside;
  }

 private:
  static constexpr int kCells = 32;  // per axis

  static float Coord(const Vec3& v, int a) {
    return a == 0 ? v.x : a == 1 ? v.y : v.z;
  }
  int Axis(float v, int a) const {
    const float cell = (v - Coord(bounds_.min, a)) * inv_cell_[a];
    return std::clamp(static_cast<int>(std::floor(cell)), 0, kCells - 1);
  }
  uint32_t CellIndex(const Vec3& p) const {
    return static_cast<uint32_t>(
        (Axis(p.x, 0) * kCells + Axis(p.y, 1)) * kCells + Axis(p.z, 2));
  }

  std::span<const Vec3> points_;
  AABB bounds_;
  float inv_cell_[3] = {0, 0, 0};
  std::vector<uint32_t> starts_;
  std::vector<uint32_t> cell_of_;
  std::vector<uint32_t> order_;
};

/// Replays the deformer once, in step order, on a regenerated mesh; at
/// each step, checks every verified response that ran there against the
/// in-process engine (stale index built at step 0, as the server's) and
/// counts each box's vertices at that step exactly (`PointGrid`).
Result<Verification> Verify(const Workload& w, const DeformerSpec& spec,
                            const std::vector<Call>& calls,
                            const std::vector<QueryDigest>& digests) {
  Timer timer;
  auto generated = MakeNeuroMesh(w.neuro_level, 1.0);
  if (!generated.ok()) return generated.status();
  TetraMesh mesh = generated.MoveValue();
  Octopus reference;
  reference.Build(mesh);
  // The server is stopped by now: verification may use every core.
  engine::QueryEngine engine(engine::QueryEngineOptions{
      .threads = static_cast<int>(
          std::clamp(std::thread::hardware_concurrency(), 1u, 4u))});
  auto deformer = MakeDeformer(spec);
  if (!deformer.ok()) return deformer.status();
  deformer.Value()->Bind(mesh);

  std::vector<const Call*> order;
  for (const Call& call : calls) {
    if (call.verify) order.push_back(&call);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Call* a, const Call* b) {
                     return a->stats.epoch.step < b->stats.epoch.step;
                   });
  Verification v;
  uint32_t step = 0;
  std::vector<AABB> boxes;
  engine::QueryBatchResult expected;
  PointGrid grid;
  for (size_t i = 0; i < order.size();) {
    const uint32_t target = order[i]->stats.epoch.step;
    while (step < target) {
      ++step;
      deformer.Value()->ApplyStep(static_cast<int>(step), &mesh);
    }
    // Every verified request of this step in one engine batch.
    size_t end = i;
    boxes.clear();
    for (; end < order.size() && order[end]->stats.epoch.step == target;
         ++end) {
      const std::vector<AABB>& b = order[end]->request->boxes;
      boxes.insert(boxes.end(), b.begin(), b.end());
    }
    engine.Execute(reference, mesh, boxes, &expected);
    grid.Build(mesh.positions());
    size_t slot = 0;
    for (; i < end; ++i) {
      ++v.requests;
      for (size_t q = 0; q < order[i]->request->boxes.size(); ++q, ++slot) {
        const QueryDigest& got = digests[order[i]->digest_begin + q];
        const std::vector<VertexId>& want = expected.per_query[slot];
        ++v.queries;
        if (got.count != want.size() || got.hash != HashIds(want)) {
          ++v.mismatches;
        }
        v.returned += want.size();
        v.truth += grid.CountInside(boxes[slot]);
      }
    }
  }
  v.seconds = timer.ElapsedSeconds();
  return v;
}


// --- One pass: set-up, warm-up, window, drain, verification -----------

struct Pass {
  bool traced = false;
  std::vector<SetupTime> setups;
  Inputs inputs;
  DeformerSpec spec;
  server::ServerOptions options;
  uint64_t num_vertices = 0;
  uint64_t snapshot_bytes = 0;
  std::vector<Call> calls;
  std::vector<Segment> segments;  ///< open-loop segments and bursts
  std::vector<StepRecord> steps;
  int cycles = 0;  ///< in the window
  Counters start, end;  ///< read as the window starts and as it ends
  double rss_peak_mib = 0.0;
  uint64_t sidecar_bytes = 0;
  uint32_t steps_applied = 0;  ///< epoch step at the window's end
  size_t spilled_epochs_end = 0;
  uint64_t resident_bytes_end = 0;
  std::vector<obs::QueryTraceRecord> records;
  std::string journal_json;
  int64_t unix_offset = 0;  ///< unix nanos minus steady nanos
  Verification verification;
};

Result<Pass> RunPass(const Workload& w, uint64_t seed, double seconds,
                     bool traced, int setups, const std::string& out_dir) {
  Pass pass;
  pass.traced = traced;
  pass.cycles = std::max(1, static_cast<int>(std::lround(seconds /
                                                         kCycleSeconds)));
  const int total_cycles = kWarmupCycles + pass.cycles;
  const std::string prefix = out_dir + "/" + w.name + "." +
                             std::to_string(getpid());
  auto svc = std::make_unique<Service>(w, prefix, traced);
  SetupTime setup;
  OCTOPUS_RETURN_NOT_OK(svc->SetUp(
      [&](const TetraMesh& mesh) {
        pass.inputs = MakeInputs(w, mesh, seed,
                                 total_cycles * kOpenSegmentSeconds);
      },
      &setup));
  pass.setups.push_back(setup);
  pass.spec = svc->spec();
  pass.options = svc->options();
  pass.num_vertices = svc->num_vertices();
  pass.snapshot_bytes = FileBytes(svc->snapshot_path());
  // Hand the set-up's freed heap (mesh generation peaks far above
  // serving) back to the OS, so the window's RSS is what serving holds.
  malloc_trim(0);
  svc->Run();

  LoadClient client(svc->backend(), traced,
                    pass.inputs.open.size() + (1u << 18));
  OCTOPUS_RETURN_NOT_OK(client.Connect(svc->server().port()));
  if (w.historical_share > 0.0) {
    // Pre-roll so every historical age is addressable from the start.
    for (uint32_t i = 0; i < kMaxHistoryAge; ++i) svc->backend()->AdvanceStep();
  }
  Stepper stepper(svc->backend(),
                  static_cast<int64_t>(w.step_ms) * 1'000'000);
  stepper.Start();

  pass.unix_offset = UnixNow() - Now();
  // This thread is the load thread.
  auto server_cpu = [&stepper] {
    return CpuNanos(CLOCK_PROCESS_CPUTIME_ID) -
           CpuNanos(CLOCK_THREAD_CPUTIME_ID) - CpuNanos(stepper.cpu_clock());
  };
  const int64_t burst_segment =
      static_cast<int64_t>(kBurstSegmentSeconds * 1e9);
  // The other set-ups run between cycles, spread over the window: the
  // machine's speed drifts over seconds, and set-ups taken back to back
  // would all carry one moment's speed. Meanwhile the stepper is paused
  // and no request is in flight; the window's peak RSS leaves them out.
  auto extra_setup = [&]() -> Status {
    stepper.Pause();
    pass.rss_peak_mib = std::max(pass.rss_peak_mib, PeakRssMib());
    {
      Service extra(w, prefix + ".setup", traced);
      OCTOPUS_RETURN_NOT_OK(extra.SetUp(nullptr, &setup));
    }
    pass.setups.push_back(setup);
    malloc_trim(0);
    ResetPeakRss();
    stepper.Resume();
    return Status::OK();
  };
  for (int k = 0; k < total_cycles; ++k) {
    const bool measured = k >= kWarmupCycles;
    if (k == kWarmupCycles) {
      ResetPeakRss();
      pass.start = ReadCounters(*svc);
    }
    const uint16_t cycle = static_cast<uint16_t>(k);
    Segment open;
    open.measured = measured;
    open.cycle = cycle;
    open.start = Now();
    int64_t cpu = server_cpu();
    client.RunOpen(pass.inputs, open.start, cycle);
    // The segment's last answers come in before the first burst goes out.
    client.AwaitAll(Now() + kRequestTimeoutNanos);
    open.end = Now();
    open.server_cpu_nanos = server_cpu() - cpu;
    pass.segments.push_back(open);
    const int64_t bursts_until = Now() + burst_segment;
    do {
      cpu = server_cpu();
      Segment burst = client.RunBurst(pass.inputs, cycle);
      burst.server_cpu_nanos = server_cpu() - cpu;
      burst.measured = measured;
      pass.segments.push_back(burst);
    } while (Now() < bursts_until);
    // Extra set-up i (1-based) follows measured cycle i * cycles / setups.
    const int done = k + 1 - kWarmupCycles;
    while (measured && done < pass.cycles &&
           static_cast<int>(pass.setups.size()) < setups &&
           static_cast<int>(pass.setups.size()) * pass.cycles / setups <=
               done) {
      OCTOPUS_RETURN_NOT_OK(extra_setup());
    }
  }
  pass.end = ReadCounters(*svc);
  const int64_t window_end = pass.end.at;
  pass.rss_peak_mib = std::max(pass.rss_peak_mib, PeakRssMib());
  pass.sidecar_bytes = FileBytes(svc->sidecar_path());
  pass.steps_applied = svc->backend()->CurrentEpoch().step;
  if (const server::EpochStore* store = svc->backend()->epoch_store()) {
    pass.spilled_epochs_end = store->spilled_epochs();
    pass.resident_bytes_end = store->resident_bytes();
  }
  client.Drain(window_end + kRequestTimeoutNanos);
  stepper.Stop();
  pass.steps = stepper.records();
  if (traced) {
    svc->server().recorder().Snapshot(&pass.records);
    pass.journal_json = svc->journal().RenderJson();
  }
  pass.calls = std::move(client.calls());
  std::vector<uint64_t> open_queries(total_cycles, 0);
  for (const Call& c : pass.calls) {
    if (c.phase == Phase::kOpen && !c.failed) {
      open_queries[c.cycle] += c.request->boxes.size();
    }
  }
  for (Segment& s : pass.segments) {
    if (!s.burst) s.queries = open_queries[s.cycle];
  }
  const std::vector<QueryDigest> digests = client.digests();
  OCTOPUS_RETURN_NOT_OK(svc->Shutdown());
  svc.reset();

  auto verified = Verify(w, pass.spec, pass.calls, digests);
  if (!verified.ok()) return verified.status();
  pass.verification = verified.Value();

  // A window too short to hold every set-up leaves the rest for now.
  while (static_cast<int>(pass.setups.size()) < setups) {
    Service extra(w, prefix + ".setup", traced);
    OCTOPUS_RETURN_NOT_OK(extra.SetUp(nullptr, &setup));
    pass.setups.push_back(setup);
  }
  return pass;
}

// --- Metrics ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

bool InWindow(int64_t t, int64_t from, int64_t to) {
  return t >= from && t < to;
}

double LatencyMs(const Call& c) {
  // A failed request counts as +inf; reported as the request timeout
  // when a percentile lands on one (JSON has no infinity).
  return c.failed ? static_cast<double>(kRequestTimeoutNanos) / 1e6
                  : static_cast<double>(c.finish - c.due) / 1e6;
}

std::vector<const Call*> OpenCalls(const Pass& p) {
  std::vector<const Call*> out;
  for (const Call& c : p.calls) {
    if (c.measured && c.phase == Phase::kOpen) out.push_back(&c);
  }
  return out;
}

std::vector<const StepRecord*> WindowSteps(const Pass& p) {
  std::vector<const StepRecord*> out;
  for (const StepRecord& s : p.steps) {
    if (InWindow(s.start, p.start.at, p.end.at)) out.push_back(&s);
  }
  return out;
}

/// How late the generator sent open-loop requests (p99): a validity
/// check — above 1 ms the schedule, not the server, shaped the latency.
double LatenessP99Ms(const Pass& p) {
  std::vector<double> late;
  for (const Call* c : OpenCalls(p)) {
    late.push_back(static_cast<double>(c->send_start - c->due) / 1e6);
  }
  return Percentile(&late, 0.99);
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

/// The `q`-quantile of each open-loop segment's latencies, and the median
/// of those over the window's segments.
double OpenLatencyMs(const Pass& p, double q) {
  std::map<uint16_t, std::vector<double>> by_cycle;
  for (const Call* c : OpenCalls(p)) {
    by_cycle[c->cycle].push_back(LatencyMs(*c));
  }
  std::vector<double> per_segment;
  for (auto& [cycle, lat] : by_cycle) {
    per_segment.push_back(Percentile(&lat, q));
  }
  return Median(per_segment);
}

/// The median of `of(segment)` over the window's bursts (`bursts`) or
/// open-loop segments.
template <typename F>
double SegmentMedian(const Pass& p, bool bursts, F of) {
  std::vector<double> values;
  for (const Segment& s : p.segments) {
    if (s.measured && s.burst == bursts && s.queries > 0) {
      values.push_back(of(s));
    }
  }
  return Median(values);
}

/// Server CPU per answered query, the median over the window's bursts
/// (`bursts`) or open-loop segments.
double ServerCpuUsPerQuery(const Pass& p, bool bursts) {
  return SegmentMedian(p, bursts, [](const Segment& s) {
    return static_cast<double>(s.server_cpu_nanos) / 1e3 /
           static_cast<double>(s.queries);
  });
}

/// Queries answered per second of a burst, the median over the window's
/// bursts.
double BurstQps(const Pass& p) {
  return SegmentMedian(p, /*bursts=*/true, [](const Segment& s) {
    return Ratio(static_cast<double>(s.queries),
                 static_cast<double>(s.end - s.start) / 1e9);
  });
}

struct Attempts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Attempts CountAttempts(const Pass& p) {
  Attempts a;
  for (const Call& c : p.calls) {
    if (!c.measured) continue;
    ++a.attempted;
    a.failed += c.failed;
  }
  return a;
}

/// `AdvanceStep` times of the steps started in the window, in ms: wall
/// time, or the stepper thread's CPU time (`cpu`).
std::vector<double> WindowStepMs(const Pass& p, bool cpu) {
  std::vector<double> step_ms;
  for (const StepRecord* s : WindowSteps(p)) {
    step_ms.push_back(static_cast<double>(cpu ? s->cpu_nanos : s->nanos) /
                      1e6);
  }
  return step_ms;
}

std::vector<Metric> EndToEnd(const Pass& p) {
  const Attempts attempts = CountAttempts(p);
  std::vector<double> step_cpu_ms = WindowStepMs(p, /*cpu=*/true);
  std::vector<double> setup_cpu;
  for (const SetupTime& t : p.setups) setup_cpu.push_back(t.cpu_seconds);
  const Verification& v = p.verification;
  return {
      {"query_cpu_us", ServerCpuUsPerQuery(p, /*bursts=*/false), "us"},
      {"batch_cpu_us", ServerCpuUsPerQuery(p, /*bursts=*/true), "us"},
      {"step_cpu_ms", Percentile(&step_cpu_ms, 0.50), "ms"},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(attempts.failed),
                   static_cast<double>(attempts.attempted)),
       "ratio"},
      {"rss_peak_mb", p.rss_peak_mib, "MiB"},
      {"recall",
       Ratio(static_cast<double>(v.returned), static_cast<double>(v.truth)),
       "ratio"},
      {"sidecar_bytes_per_step",
       Ratio(static_cast<double>(p.sidecar_bytes),
             static_cast<double>(p.steps_applied)),
       "B"},
      {"setup_s", Median(setup_cpu), "s"},
  };
}

/// Engine wall time of a request's batch, estimated from its CPU phase
/// nanos: the phases are summed over the batch's shards, which run in
/// parallel (min(threads, batch queries) of them); merge is already wall.
struct EngineWall {
  double probe = 0, walk = 0, crawl = 0, merge = 0;
  double Total() const { return probe + walk + crawl + merge; }
};

EngineWall EngineWallNanos(const server::BatchStatsWire& s) {
  const double shards = static_cast<double>(std::clamp<uint32_t>(
      s.batch_queries, 1, static_cast<uint32_t>(kEngineThreads)));
  return {static_cast<double>(s.probe_nanos) / shards,
          static_cast<double>(s.walk_nanos) / shards,
          static_cast<double>(s.crawl_nanos) / shards,
          static_cast<double>(s.merge_nanos)};
}

struct LayerChecks {
  std::string dominant;  ///< the workload's stated dominant layer
  bool holds = false;
  std::string detail;
};

struct PerLayer {
  std::vector<Metric> metrics;
  LayerChecks check;
};

PerLayer PerLayerMetrics(const Workload& w, const Pass& p,
                         double untraced_query_cpu_us) {
  std::unordered_map<uint64_t, const obs::QueryTraceRecord*> by_trace;
  for (const obs::QueryTraceRecord& r : p.records) by_trace[r.trace_id] = &r;

  std::vector<double> send_us, recv_us, queue_ms, residue_ms, hist_ms,
      current_ms;
  for (const Call* c : OpenCalls(p)) {
    send_us.push_back(static_cast<double>(c->send_end - c->send_start) / 1e3);
    (c->request->age > 0 ? hist_ms : current_ms).push_back(LatencyMs(*c));
    if (c->failed) continue;
    recv_us.push_back(static_cast<double>(c->finish - c->first_byte) / 1e3);
    auto rec = by_trace.find(c->stats.trace_id);
    if (rec == by_trace.end()) continue;
    queue_ms.push_back(static_cast<double>(rec->second->queue_wait_nanos) /
                       1e6);
    residue_ms.push_back(
        static_cast<double>((c->first_byte - c->send_end) -
                            rec->second->total_nanos) /
        1e6);
  }

  // Per-batch engine wall, once per distinct batch (coalesced requests
  // carry identical batch stats).
  std::map<std::tuple<uint64_t, int64_t, int64_t, uint32_t>, double> batches;
  uint64_t result_bytes = 0, result_queries = 0;
  double walk_first = 0, walk_first_q = 0, walk_last = 0, walk_last_q = 0;
  const int64_t tenth = (p.end.at - p.start.at) / 10;
  uint64_t hist_spilled = 0, hist_spilled_misses = 0;
  for (const Call& c : p.calls) {
    if (c.failed || !c.measured) continue;
    const double q = static_cast<double>(c.request->boxes.size());
    result_bytes += c.result_bytes;
    result_queries += c.request->boxes.size();
    batches.emplace(std::make_tuple(c.stats.epoch.epoch, c.stats.probe_nanos,
                                    c.stats.crawl_nanos,
                                    c.stats.batch_queries),
                    EngineWallNanos(c.stats).Total() / 1e6);
    // A request's share of its batch's walk work.
    const double walk = static_cast<double>(c.stats.walk_vertices) * q /
                        std::max<double>(c.stats.batch_queries, 1);
    if (InWindow(c.finish, p.start.at, p.start.at + tenth)) {
      walk_first += walk;
      walk_first_q += q;
    } else if (InWindow(c.finish, p.end.at - tenth, p.end.at)) {
      walk_last += walk;
      walk_last_q += q;
    }
    if (c.request->age > server::EpochRetentionOptions{}.retention_epochs) {
      ++hist_spilled;
      hist_spilled_misses += c.stats.page_misses > 0;
    }
  }
  std::vector<double> batch_ms;
  for (const auto& [key, ms] : batches) batch_ms.push_back(ms);

  const server::ServerMetrics& m0 = p.start.metrics;
  const server::ServerMetrics& m1 = p.end.metrics;
  const double queries = static_cast<double>(m1.queries_executed -
                                             m0.queries_executed);
  const double nbatches = static_cast<double>(m1.batches_executed -
                                              m0.batches_executed);
  const PhaseStats& e0 = p.start.engine;
  const PhaseStats& e1 = p.end.engine;
  const double probe_ns = static_cast<double>(e1.probe_nanos - e0.probe_nanos);
  const double walk_ns = static_cast<double>(e1.walk_nanos - e0.walk_nanos);
  const double crawl_ns = static_cast<double>(e1.crawl_nanos - e0.crawl_nanos);
  const double merge_ns = static_cast<double>(e1.merge_nanos - e0.merge_nanos);
  auto d = [](size_t after, size_t before) {
    return static_cast<double>(after - before);
  };
  const storage::PageIOStats& io0 = e0.page_io;
  const storage::PageIOStats& io1 = e1.page_io;
  const double accesses = d(io1.PageAccesses(), io0.PageAccesses());
  const double pool_hits = d(p.end.pool.page_hits, p.start.pool.page_hits);
  const double pool_misses =
      d(p.end.pool.page_misses, p.start.pool.page_misses);
  const std::vector<const StepRecord*> steps = WindowSteps(p);
  double pages_rewritten = 0;
  for (const StepRecord* s : steps) {
    pages_rewritten += static_cast<double>(s->pages_rewritten);
  }
  const double nsteps = static_cast<double>(steps.size());
  const double serialize_ns = static_cast<double>(
      m1.serialize_nanos_total - m0.serialize_nanos_total);
  const double results = d(m1.results_sent, m0.results_sent);
  const double traced_p50 = OpenLatencyMs(p, 0.50);
  std::vector<double> step_ms = WindowStepMs(p, /*cpu=*/false);

  PerLayer out;
  out.metrics = {
      {"client.query_p50_ms", traced_p50, "ms"},
      {"client.query_p90_ms", OpenLatencyMs(p, 0.90), "ms"},
      {"client.burst_qps", BurstQps(p), "queries/s"},
      {"client.lateness_p99_ms", LatenessP99Ms(p), "ms"},
      {"client.send_us_p50", Percentile(&send_us, 0.50), "us"},
      {"client.recv_us_p50", Percentile(&recv_us, 0.50), "us"},
      {"client.result_bytes_per_query",
       Ratio(static_cast<double>(result_bytes),
             static_cast<double>(result_queries)),
       "B"},
      {"server.queue_wait_p50_ms", Percentile(&queue_ms, 0.50), "ms"},
      {"server.queue_wait_p99_ms", Percentile(&queue_ms, 0.99), "ms"},
      {"server.residue_p50_ms", Percentile(&residue_ms, 0.50), "ms"},
      {"server.queries_per_batch", Ratio(queries, nbatches), "count"},
      {"server.serialize_us_per_request", Ratio(serialize_ns / 1e3, results),
       "us"},
      {"server.loop_stall_mean_us",
       Ratio(static_cast<double>(m1.loop_stall.sum_nanos() -
                                 m0.loop_stall.sum_nanos()) /
                 1e3,
             d(m1.loop_stall.count(), m0.loop_stall.count())),
       "us"},
      {"server.rejected_frac",
       Ratio(d(m1.queries_rejected, m0.queries_rejected),
             d(m1.queries_received, m0.queries_received)),
       "ratio"},
      {"engine.batch_ms_p50", Percentile(&batch_ms, 0.50), "ms"},
      {"engine.merge_us_per_batch", Ratio(merge_ns / 1e3, nbatches), "us"},
      {"octopus.probe_us_per_query", Ratio(probe_ns / 1e3, queries), "us"},
      {"octopus.probe_share",
       Ratio(probe_ns, probe_ns + walk_ns + crawl_ns + merge_ns), "ratio"},
      {"octopus.probed_vertices_per_query",
       Ratio(d(e1.probed_vertices, e0.probed_vertices), queries), "count"},
      {"octopus.walk_us_per_query", Ratio(walk_ns / 1e3, queries), "us"},
      {"octopus.walk_frac",
       Ratio(d(e1.walk_invocations, e0.walk_invocations), queries), "ratio"},
      {"octopus.walk_vertices_per_query",
       Ratio(d(e1.walk_vertices, e0.walk_vertices), queries), "count"},
      {"octopus.crawl_us_per_query", Ratio(crawl_ns / 1e3, queries), "us"},
      {"octopus.crawl_edges_per_query",
       Ratio(d(e1.crawl_edges, e0.crawl_edges), queries), "count"},
      {"octopus.crawl_yield",
       Ratio(d(e1.result_vertices, e0.result_vertices),
             d(e1.crawl_edges, e0.crawl_edges)),
       "ratio"},
      {"octopus.result_vertices_per_query",
       Ratio(d(e1.result_vertices, e0.result_vertices), queries), "count"},
      {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
       "ratio"},
      {"storage.page_misses_per_query",
       Ratio(d(io1.page_misses, io0.page_misses), queries), "count"},
      {"storage.evictions_per_query",
       Ratio(d(io1.page_evictions, io0.page_evictions), queries), "count"},
      {"storage.lease_hits_per_access",
       Ratio(d(io1.lease_hits, io0.lease_hits), accesses), "ratio"},
      {"storage.accesses_per_distinct_page",
       Ratio(accesses, d(io1.pages_distinct, io0.pages_distinct)), "ratio"},
      {"storage.lease_revocations",
       d(io1.lease_revocations, io0.lease_revocations), "count"},
      {"storage.pages_rewritten_per_step", Ratio(pages_rewritten, nsteps),
       "count"},
      {"epoch_store.spill_bytes_per_step",
       Ratio(static_cast<double>(p.end.spill_bytes - p.start.spill_bytes),
             nsteps),
       "B"},
      {"epoch_store.resident_mb_end",
       static_cast<double>(p.resident_bytes_end) / (1024.0 * 1024.0), "MiB"},
      // Historical over current-epoch open-loop latency; 0 without
      // historical requests.
      {"epoch_store.historical_p50_ratio",
       Ratio(Percentile(&hist_ms, 0.50), Percentile(&current_ms, 0.50)),
       "ratio"},
      {"epoch_store.historical_p95_ratio",
       Ratio(Percentile(&hist_ms, 0.95), Percentile(&current_ms, 0.95)),
       "ratio"},
      {"epoch_store.spilled_epochs_end",
       static_cast<double>(p.spilled_epochs_end), "count"},
      {"epoch_store.evicted",
       static_cast<double>(p.end.evicted - p.start.evicted), "count"},
      {"sim.steps", nsteps, "count"},
      {"sim.step_p50_ms", Percentile(&step_ms, 0.50), "ms"},
      {"sim.step_p90_ms", Percentile(&step_ms, 0.90), "ms"},
      {"sim.walk_growth",
       walk_first > 0 ? Ratio(walk_last / walk_last_q,
                              walk_first / walk_first_q)
                      : 1.0,
       "ratio"},
      {"obs.tracing_overhead",
       Ratio(ServerCpuUsPerQuery(p, /*bursts=*/false), untraced_query_cpu_us),
       "ratio"},
  };

  auto metric = [&](const char* name) {
    for (const Metric& x : out.metrics) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  char detail[256];
  const std::string name = w.name;
  if (name == "monitor") {
    const double wait = Ratio(metric("server.queue_wait_p50_ms"), traced_p50);
    const double probe = metric("octopus.probe_share");
    out.check = {"server (coalescing wait) + octopus (probe)",
                 wait >= 0.4 && probe >= 0.6, ""};
    std::snprintf(detail, sizeof(detail),
                  "queue wait p50 = %.0f%% of query p50 (needs >= 40%%); "
                  "probe = %.0f%% of engine time (needs >= 60%%)",
                  100 * wait, 100 * probe);
  } else if (name == "crawl-wide") {
    const double per_request = Ratio(result_queries, results);
    const double crawl_side =
        metric("octopus.crawl_us_per_query") +
        Ratio(metric("server.serialize_us_per_request"), per_request) +
        Ratio(metric("client.recv_us_p50"), per_request);
    const double probe = metric("octopus.probe_us_per_query");
    out.check = {"octopus (crawl) + server (serialize) + client (recv)",
                 crawl_side > probe, ""};
    std::snprintf(detail, sizeof(detail),
                  "crawl+serialize+recv = %.1f us/query vs probe %.1f "
                  "us/query",
                  crawl_side, probe);
  } else {
    const double misses_per_batch =
        Ratio(d(io1.page_misses, io0.page_misses), nbatches);
    out.check = {"storage + epoch_store",
                 misses_per_batch > 0 && hist_spilled_misses > 0, ""};
    std::snprintf(detail, sizeof(detail),
                  "%.1f page misses/batch; %llu of %llu reads of spilled "
                  "epochs missed the pool",
                  misses_per_batch,
                  static_cast<unsigned long long>(hist_spilled_misses),
                  static_cast<unsigned long long>(hist_spilled));
  }
  out.check.detail = detail;
  return out;
}

// --- Traced-run artifacts: budget and merged trace --------------------

struct BudgetRow {
  double total = 0, late = 0, send = 0, queue = 0, probe = 0, walk = 0,
         crawl = 0, merge = 0, serialize = 0, recv = 0;
};

/// The attributed parts of a budget, in request order; what `total`
/// leaves beyond their sum is the residue.
constexpr std::pair<const char*, double BudgetRow::*> kBudgetParts[] = {
    {"late", &BudgetRow::late},   {"send", &BudgetRow::send},
    {"queue", &BudgetRow::queue}, {"probe", &BudgetRow::probe},
    {"walk", &BudgetRow::walk},   {"crawl", &BudgetRow::crawl},
    {"merge", &BudgetRow::merge}, {"serialize", &BudgetRow::serialize},
    {"recv", &BudgetRow::recv},
};

double Residue(const BudgetRow& b) {
  double residue = b.total;
  for (const auto& [name, part] : kBudgetParts) residue -= b.*part;
  return residue;
}

/// Each open-loop request's latency split into the stages the layers
/// report: generator lateness, client send, queue wait, engine phases
/// (wall estimate), serialize, client receive, and the unattributed
/// residue (wire, socket reads, thread hand-offs, inbox, flush).
std::vector<BudgetRow> Budgets(const Pass& p) {
  std::unordered_map<uint64_t, const obs::QueryTraceRecord*> by_trace;
  for (const obs::QueryTraceRecord& r : p.records) by_trace[r.trace_id] = &r;
  std::vector<BudgetRow> rows;
  for (const Call* c : OpenCalls(p)) {
    if (c->failed) continue;
    auto it = by_trace.find(c->stats.trace_id);
    if (it == by_trace.end()) continue;
    const obs::QueryTraceRecord& r = *it->second;
    const EngineWall e = EngineWallNanos(c->stats);
    BudgetRow b;
    b.total = static_cast<double>(c->finish - c->due) / 1e6;
    b.late = static_cast<double>(c->send_start - c->due) / 1e6;
    b.send = static_cast<double>(c->send_end - c->send_start) / 1e6;
    b.queue = static_cast<double>(r.queue_wait_nanos) / 1e6;
    b.probe = e.probe / 1e6;
    b.walk = e.walk / 1e6;
    b.crawl = e.crawl / 1e6;
    b.merge = e.merge / 1e6;
    b.serialize = static_cast<double>(r.serialize_nanos) / 1e6;
    b.recv = static_cast<double>(c->finish - c->first_byte) / 1e6;
    rows.push_back(b);
  }
  std::sort(rows.begin(), rows.end(),
            [](const BudgetRow& a, const BudgetRow& b) {
              return a.total < b.total;
            });
  return rows;
}

/// Mean budget of the requests whose latency ranks in [lo, hi) — a band
/// around a percentile, so each part is an average, yet the parts still
/// add up to the band's mean latency exactly.
BudgetRow BandMean(const std::vector<BudgetRow>& sorted, double lo,
                   double hi) {
  BudgetRow mean;
  const size_t n = sorted.size();
  const size_t from = static_cast<size_t>(lo * static_cast<double>(n));
  size_t to = static_cast<size_t>(std::ceil(hi * static_cast<double>(n)));
  to = std::min(std::max(to, from + 1), n);
  if (from >= to) return mean;
  const double k = static_cast<double>(to - from);
  for (size_t i = from; i < to; ++i) {
    mean.total += sorted[i].total / k;
    for (const auto& [name, part] : kBudgetParts) {
      mean.*part += sorted[i].*part / k;
    }
  }
  return mean;
}

std::string BudgetJson(const BudgetRow& b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"total_ms\": %.6f", b.total);
  std::string out = buf;
  for (const auto& [name, part] : kBudgetParts) {
    std::snprintf(buf, sizeof(buf), ", \"%s_ms\": %.6f", name, b.*part);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ", \"residue_ms\": %.6f}", Residue(b));
  return out + buf;
}

void PrintBudget(const char* label, const BudgetRow& b) {
  std::printf("  %-4s %8.3f ms =", label, b.total);
  for (const auto& [name, part] : kBudgetParts) {
    std::printf(" %s %.3f +", name, b.*part);
  }
  std::printf(" residue %.3f (%.0f%%)\n", Residue(b),
              100 * Ratio(Residue(b), b.total));
}

/// One Chrome trace: the client spans joined with the server's flight
/// records on the echoed trace id (obs::MergedChromeTraceJson), plus the
/// stepper's AdvanceStep spans as a third process.
std::string MergedTrace(const Pass& p) {
  std::vector<obs::ClientCallSpan> spans;
  int64_t base = 0;
  for (size_t i = 0; i < p.calls.size(); ++i) {
    const Call& c = p.calls[i];
    if (c.failed) continue;
    obs::ClientCallSpan s;
    s.span_id = i + 1;
    s.request_id = i + 1;
    s.server_trace_id = c.stats.trace_id;
    s.start_unix_nanos = c.send_start + p.unix_offset;
    s.send_nanos = c.send_end - c.send_start;
    s.wait_nanos = c.first_byte - c.send_end;
    s.recv_nanos = c.finish - c.first_byte;
    s.queries = c.request->boxes.size();
    s.epoch = c.wire_epoch;
    if (base == 0 || s.start_unix_nanos < base) base = s.start_unix_nanos;
    spans.push_back(s);
  }
  std::string json = obs::MergedChromeTraceJson(p.records, spans);
  const std::string tail = "\n]}\n";
  if (json.size() < tail.size() ||
      json.compare(json.size() - tail.size(), tail.size(), tail) != 0) {
    return json;
  }
  json.resize(json.size() - tail.size());
  json += ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
          "\"args\":{\"name\":\"simulate\"}}";
  for (const StepRecord& s : p.steps) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"AdvanceStep\",\"ph\":\"X\",\"pid\":3,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%u,"
                  "\"pages_rewritten\":%llu}}",
                  static_cast<double>(s.start + p.unix_offset - base) / 1e3,
                  static_cast<double>(s.nanos) / 1e3, s.step,
                  static_cast<unsigned long long>(s.pages_rewritten));
    json += buf;
  }
  json += tail;
  return json;
}

// --- Output -----------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ProvenanceJson(const Workload& w, const Pass& p, uint64_t seed,
                           double seconds, const std::string& git_sha) {
  const server::ServerOptions& o = p.options;
  const server::EpochRetentionOptions r;
  std::string s = "{";
  s += "\"git_sha\": " + Quote(git_sha);
  s += ", \"build_type\": " + Quote(OCTOBENCH_BUILD_TYPE);
  s += ", \"nproc\": " + Num(std::thread::hardware_concurrency());
  s += ", \"workload\": " + Quote(w.name);
  s += ", \"seed\": " + Num(static_cast<double>(seed));
  s += ", \"seconds\": " + Num(seconds);
  s += ", \"cycles\": " + Num(p.cycles);
  s += ", \"warmup_cycles\": " + Num(kWarmupCycles);
  s += ", \"open_segment_seconds\": " + Num(kOpenSegmentSeconds);
  s += ", \"burst_segment_seconds\": " + Num(kBurstSegmentSeconds);
  s += ", \"window_seconds\": " +
       Num(static_cast<double>(p.end.at - p.start.at) / 1e9);
  s += ", \"neuro_level\": " + Num(w.neuro_level);
  s += ", \"vertices\": " + Num(static_cast<double>(p.num_vertices));
  s += ", \"paged\": " + std::string(w.paged ? "true" : "false");
  s += ", \"snapshot_bytes\": " + Num(static_cast<double>(p.snapshot_bytes));
  s += ", \"pool_bytes\": " + Num(w.paged ? kPagedPoolBytes : 0);
  s += ", \"step_ms\": " + Num(w.step_ms);
  s += ", \"open_rate_rps\": " + Num(kOpenRate);
  s += ", \"queries_per_request\": " + Num(w.queries);
  s += ", \"selectivity\": [" + Num(w.sel_lo) + ", " + Num(w.sel_hi) + "]";
  s += ", \"burst_queries\": " + Num(static_cast<double>(kBurstQueries));
  size_t bursts = 0;
  for (const Segment& seg : p.segments) bursts += seg.measured && seg.burst;
  s += ", \"bursts_in_window\": " + Num(static_cast<double>(bursts));
  s += ", \"historical_share\": " + Num(w.historical_share);
  s += ", \"connections\": " + Num(kConnections);
  s += ", \"slo_ms\": " + Num(static_cast<double>(kSloNanos) / 1e6);
  s += ", \"deformer\": {\"kind\": \"plasticity\", \"amplitude\": " +
       Num(p.spec.amplitude) +
       ", \"seed\": " + Num(static_cast<double>(p.spec.seed)) + "}";
  s += ", \"steps_in_window\": " + Num(static_cast<double>(
                                         WindowSteps(p).size()));
  s += ", \"steps_applied\": " + Num(p.steps_applied);
  s += ", \"server_options\": {\"engine_threads\": " + Num(kEngineThreads) +
       ", \"io_threads\": " + Num(o.io_threads) +
       ", \"window_us\": " +
       Num(static_cast<double>(o.scheduler.window_nanos) / 1e3) +
       ", \"max_batch_queries\": " +
       Num(static_cast<double>(o.scheduler.max_batch_queries)) +
       ", \"max_pending_queries\": " +
       Num(static_cast<double>(o.scheduler.max_pending_queries)) +
       ", \"trace_ring_slots\": " +
       Num(static_cast<double>(o.trace_ring_slots)) +
       ", \"journal_slots\": " +
       Num(o.journal != nullptr ? kTracedJournalSlots : 0) +
       ", \"retention_epochs\": " + Num(r.retention_epochs) +
       ", \"retention_bytes\": " + Num(r.retention_bytes) +
       ", \"history_epochs\": " + Num(r.history_epochs) +
       ", \"spill_pool_bytes\": " + Num(r.spill_pool_bytes) +
       ", \"spill_sidecar\": true}";
  return s + "}";
}

/// Failed measured requests by cause, e.g. {"OVERLOADED": 2}.
std::string FailuresJson(const Pass& p) {
  std::map<std::string, uint64_t> causes;
  for (const Call& c : p.calls) {
    if (!c.failed || !c.measured) continue;
    causes[c.failure == kTimedOut   ? "timeout"
           : c.failure == kTransport ? "transport"
                                     : server::ErrorCodeName(
                                           static_cast<server::ErrorCode>(
                                               c.failure))]++;
  }
  std::string out = "{";
  for (const auto& [cause, n] : causes) {
    out += (out.size() > 1 ? ", " : "") + Quote(cause) + ": " +
           Num(static_cast<double>(n));
  }
  return out + "}";
}

int Failed(const Status& status) {
  std::fprintf(stderr, "octobench: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_octobench --workload NAME --seed N "
               "--seconds S [--traced] [--out DIR] [--git-sha SHA]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::string out_dir = "build/octobench/out";
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return Usage();
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !(seconds >= 1.0 && seconds <= 600.0)) {
    return Usage();
  }
  const Workload& w = *workload;

  // End-to-end metrics always come from an untraced pass; --traced adds
  // a second, traced pass over the same inputs for the per-layer view.
  auto untraced = RunPass(w, seed, seconds, /*traced=*/false,
                          traced ? 1 : kSetupRepeats, out_dir);
  if (!untraced.ok()) return Failed(untraced.status());
  std::optional<Pass> traced_pass;
  if (traced) {
    auto pass = RunPass(w, seed, seconds, /*traced=*/true, 1, out_dir);
    if (!pass.ok()) return Failed(pass.status());
    traced_pass = pass.MoveValue();
  }
  const Pass& main_pass = traced ? *traced_pass : untraced.Value();

  std::printf("octobench %s seed %llu, %.0f s window (%zu vertices%s)\n",
              w.name, static_cast<unsigned long long>(seed), seconds,
              static_cast<size_t>(main_pass.num_vertices),
              w.paged ? ", paged" : "");
  const std::vector<Metric> e2e = EndToEnd(untraced.Value());
  PrintMetrics("end-to-end (untraced):", e2e);

  std::vector<const Pass*> passes = {&untraced.Value()};
  if (traced) passes.push_back(&main_pass);
  bool correct = true;
  for (const Pass* p : passes) {
    const Verification& v = p->verification;
    correct = correct && v.mismatches == 0 && v.queries > 0;
    std::printf("verified %zu requests / %zu queries%s: %zu mismatches "
                "(%.1f s)\n",
                v.requests, v.queries, p->traced ? " (traced pass)" : "",
                v.mismatches, v.seconds);
  }
  const size_t open_requests = OpenCalls(main_pass).size();
  const double lateness_ms = LatenessP99Ms(main_pass);
  std::printf("open-loop requests in the window: %zu; generator lateness "
              "p99 %.3f ms%s\n",
              open_requests, lateness_ms,
              lateness_ms > 1.0 ? " (over 1 ms: the run is suspect)" : "");

  std::string record = "{\"provenance\": " +
                       ProvenanceJson(w, main_pass, seed, seconds, git_sha);
  record += ", \"correct\": " + std::string(correct ? "true" : "false");
  record += ", \"open_requests\": " + Num(static_cast<double>(open_requests));
  record += ", \"client_lateness_p99_ms\": " + Num(lateness_ms);
  record += ", \"end_to_end\": " + MetricsJson(e2e);
  record += ", \"setups\": [";
  for (size_t i = 0; i < untraced.Value().setups.size(); ++i) {
    const SetupTime& t = untraced.Value().setups[i];
    record += std::string(i ? ", " : "") + "{\"wall_s\": " +
              Num(t.wall_seconds) + ", \"cpu_s\": " + Num(t.cpu_seconds) +
              "}";
  }
  record += "]";
  std::vector<Metric> reported = e2e;
  const std::string stem = out_dir + "/" + w.name + "-s" +
                           std::to_string(seed);
  if (traced) {
    const Pass& tp = *traced_pass;
    const PerLayer layers =
        PerLayerMetrics(w, tp, ServerCpuUsPerQuery(untraced.Value(), false));
    PrintMetrics("per-layer (traced):", layers.metrics);
    std::printf("dominant layer %s: %s — %s\n", layers.check.dominant.c_str(),
                layers.check.holds ? "holds" : "does NOT hold",
                layers.check.detail.c_str());
    const std::vector<BudgetRow> budgets = Budgets(tp);
    const BudgetRow p50 = BandMean(budgets, 0.45, 0.55);
    const BudgetRow p99 = BandMean(budgets, 0.985, 0.995);
    std::printf("latency budget (mean over the requests ranked in each "
                "band; %zu requests):\n",
                budgets.size());
    PrintBudget("p50", p50);
    PrintBudget("p99", p99);
    std::FILE* rows = std::fopen((stem + ".budget.jsonl").c_str(), "w");
    if (rows != nullptr) {
      for (const BudgetRow& b : budgets) {
        std::fprintf(rows, "%s\n", BudgetJson(b).c_str());
      }
      std::fclose(rows);
    }
    std::ofstream(stem + ".trace.json") << MergedTrace(tp);
    std::ofstream(stem + ".journal.json") << tp.journal_json;
    record += ", \"per_layer\": " + MetricsJson(layers.metrics);
    record += ", \"dominant_layer\": {\"layer\": " +
              Quote(layers.check.dominant) + ", \"holds\": " +
              (layers.check.holds ? "true" : "false") +
              ", \"detail\": " + Quote(layers.check.detail) + "}";
    record += ", \"budget\": {\"p50_band\": " + BudgetJson(p50) +
              ", \"p99_band\": " + BudgetJson(p99) + "}";
    reported = layers.metrics;
  }
  const Attempts attempts = CountAttempts(main_pass);
  record += ", \"failures\": " + FailuresJson(main_pass);
  record += ", \"attempted\": " + Num(static_cast<double>(attempts.attempted));
  record += ", \"failed\": " + Num(static_cast<double>(attempts.failed));
  record += "}\n";
  std::ofstream(stem + (traced ? "-traced" : "") + ".json") << record;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempts.attempted),
              static_cast<unsigned long long>(attempts.failed),
              MetricsJson(reported).c_str());
  return correct ? 0 : 1;
}
