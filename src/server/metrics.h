// Copyright 2026 The OCTOPUS Reproduction Authors
// Server-side observability: counters plus a log-linear-bucketed latency
// histogram. Since the multi-threaded front end, every counter is an
// atomic written from whichever pipeline stage owns the event (I/O
// threads, the scheduler thread, the serialization thread) and read
// lock-free by STATS / /metrics scrapers on other threads; the engine
// phase totals — a struct, not a word — are guarded by a small mutex
// (`MergeEngine` / `EngineTotal`). Plain field reads remain valid once
// the server has quiesced (after `Run` returns), which is how the tests
// and benches consume them.
#ifndef OCTOPUS_SERVER_METRICS_H_
#define OCTOPUS_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/mesh_epoch.h"
#include "obs/metrics_registry.h"
#include "octopus/phase_stats.h"
#include "server/protocol.h"

namespace octopus::server {

/// \brief Log-linear-bucketed latency histogram (16 sub-buckets per
/// octave), thread-safe for concurrent `Record` via relaxed atomics.
///
/// Nanos below 16 get one exact bucket each (indices 0..15); above
/// that, each power-of-two octave [2^o, 2^(o+1)) splits into 16 linear
/// sub-buckets, so percentile lookups resolve to ~6% instead of the 2x
/// a pure log2 bucketing gives (which collapsed p50/p95/p99 to one
/// value in BENCH_server.json). `PercentileNanos` keeps the
/// max-reporting semantics: it returns the rank's bucket upper bound
/// clamped to the observed max.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 16;    ///< linear slices per octave
  static constexpr int kFirstOctave = 4;    ///< 2^4 = first split octave
  static constexpr int kOctaves = 64 - kFirstOctave;
  static constexpr int kBuckets = kSubBuckets + kOctaves * kSubBuckets;

  LatencyHistogram() = default;
  /// Copy = relaxed-load snapshot of the source (exact at quiescence,
  /// approximately consistent while writers are live).
  LatencyHistogram(const LatencyHistogram& other) { CopyFrom(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Thread-safe; relaxed atomics (counters, no ordering needed).
  void Record(uint64_t nanos);

  /// Adds `other`'s samples into this histogram (per-thread shard
  /// merge-on-scrape; `other` may have live writers).
  void Merge(const LatencyHistogram& other);

  /// Total samples = sum of the bucket counts. Deriving it instead of
  /// keeping a second counter keeps the Prometheus invariant
  /// `+Inf bucket == _count` exact even under concurrent writers.
  uint64_t count() const;
  uint64_t max_nanos() const {
    return max_nanos_.load(std::memory_order_relaxed);
  }
  /// Sum of every recorded sample, saturating at uint64 max (a u64-max
  /// sample must not wrap the sum back to small values).
  uint64_t sum_nanos() const {
    return sum_nanos_.load(std::memory_order_relaxed);
  }
  /// Relaxed-load snapshot of the per-bucket counts.
  std::vector<uint64_t> bucket_counts() const;

  /// Inclusive upper bound (in nanos) of bucket `index`; the top bucket
  /// is open-ended and reports uint64 max.
  static uint64_t BucketUpperNanos(int index);
  /// All `kBuckets` upper bounds, for Prometheus exposition.
  static std::vector<uint64_t> BucketUpperBounds();

  /// Upper bound of the bucket holding the `p`-quantile sample
  /// (p in [0, 1]), clamped to the observed max; 0 when empty.
  uint64_t PercentileNanos(double p) const;

 private:
  static int BucketIndex(uint64_t nanos);
  void CopyFrom(const LatencyHistogram& other);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> max_nanos_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

/// \brief All server counters. Atomics: each counter has exactly one
/// logical writer stage but is read concurrently by STATS handlers on
/// I/O threads and the /metrics scraper on the main thread. Copying
/// takes a relaxed-load snapshot (what `QueryServer::MetricsSnapshot`
/// hands to benches).
struct ServerMetrics {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> malformed_frames{0};
  std::atomic<uint64_t> queries_received{0};
  std::atomic<uint64_t> queries_rejected{0};
  std::atomic<uint64_t> queries_executed{0};
  std::atomic<uint64_t> batches_executed{0};
  std::atomic<uint64_t> results_sent{0};
  std::atomic<uint64_t> errors_sent{0};
  /// Requests whose end-to-end time crossed the slow-query threshold
  /// (0 when the threshold is disabled).
  std::atomic<uint64_t> slow_queries{0};
  /// Total wall clock spent encoding RESULT frames.
  std::atomic<int64_t> serialize_nanos_total{0};
  /// Request arrival (frame fully parsed) to response enqueue; recorded
  /// by the serialization thread (and I/O threads for inline replies).
  LatencyHistogram request_latency;
  /// Event-loop stall: wall clock from an epoll wakeup to the loop
  /// re-entering epoll, recorded while the thread owns sessions. The
  /// live server keeps one shard per I/O thread and merges them into
  /// this field only in snapshots/scrapes; on the quiesced object this
  /// holds the merged total.
  LatencyHistogram loop_stall;
  /// Engine stats accumulated across every executed batch (scheduler
  /// thread, in execution order — deterministic), including page-I/O
  /// counters when the backend is paged. Guarded by `engine_mu_`: use
  /// `MergeEngine`/`EngineTotal` — the annotation makes an unlocked
  /// direct read a compile error under `-Wthread-safety`.
  PhaseStats engine_total GUARDED_BY(engine_mu_);

  ServerMetrics() = default;
  ServerMetrics(const ServerMetrics& other) { CopyFrom(other); }
  ServerMetrics& operator=(const ServerMetrics& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Folds one executed batch's stats into `engine_total` (thread-safe).
  void MergeEngine(const PhaseStats& stats) EXCLUDES(engine_mu_) {
    common::MutexLock lock(engine_mu_);
    engine_total.Merge(stats);
  }
  /// Consistent copy of `engine_total` (thread-safe).
  PhaseStats EngineTotal() const EXCLUDES(engine_mu_) {
    common::MutexLock lock(engine_mu_);
    return engine_total;
  }

  /// Saturating: a double-counted close must read as 0 active
  /// connections, not wrap to 2^64 - k (counters are self-checked in
  /// the STATS tests).
  uint64_t connections_active() const {
    const uint64_t accepted =
        connections_accepted.load(std::memory_order_relaxed);
    const uint64_t closed =
        connections_closed.load(std::memory_order_relaxed);
    return closed > accepted ? 0 : accepted - closed;
  }
  double CoalesceFactor() const {
    const uint64_t batches =
        batches_executed.load(std::memory_order_relaxed);
    return batches == 0
               ? 0.0
               : static_cast<double>(
                     queries_executed.load(std::memory_order_relaxed)) /
                     static_cast<double>(batches);
  }

 private:
  void CopyFrom(const ServerMetrics& other);

  mutable common::Mutex engine_mu_;
};

/// \brief Everything one /metrics scrape or STATS reply reads, gathered
/// once per request by the server (each source read in turn, no lock
/// held across two). Sources a server lacks — the epoch store on a
/// static backend, the buffer pool in memory, the journal when off —
/// leave their fields 0.
struct MetricsSource {
  ServerMetrics metrics;  ///< `MetricsSnapshot()`: stall shards merged
  PhaseStats engine;      ///< `metrics.EngineTotal()`
  engine::EpochInfo epoch;
  uint64_t resident_epochs = 0;
  uint64_t spilled_epochs = 0;
  uint64_t epoch_resident_bytes = 0;
  uint64_t epochs_evicted = 0;
  uint64_t spill_pages_written = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t sidecar_bytes = 0;
  uint64_t spill_pages_free = 0;
  uint64_t epoch_reload_pages = 0;
  uint64_t pool_cap_bytes = 0;
  uint64_t pool_resident_bytes = 0;
  uint64_t pool_evictions = 0;
  uint64_t journal_events = 0;
  uint64_t journal_ring_events = 0;
  uint64_t session_pins = 0;
  uint64_t trace_records = 0;
  uint64_t trace_ring_records = 0;
  uint64_t io_threads = 0;
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

/// \brief One row of the server's metric table — the single definition
/// of a metric. /metrics, OCTP STATS and (through docs/OBSERVABILITY.md,
/// which tools/check_metrics.py holds to the scrape) the docs all
/// derive from the table.
struct MetricDef {
  const char* name;
  MetricType type;
  /// Scalar rows: the row's value in `source` (nanoseconds when
  /// `seconds`, exported in seconds). Histogram rows: the nanosecond
  /// histogram, exported in seconds.
  std::variant<uint64_t (*)(const MetricsSource&),
               const LatencyHistogram& (*)(const MetricsSource&)>
      read;
  const char* help;
  bool seconds = false;
};

/// The metric table, in exposition order.
std::span<const MetricDef> MetricTable();

/// The one loop over the table: renders every row into `registry` and
/// appends its STATS samples to `stats` — a scalar row's exposition
/// value, a histogram's `_count` and `_sum` — when they are non-null.
void EmitMetrics(const MetricsSource& source, obs::MetricsRegistry* registry,
                 StatsWire* stats);

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_METRICS_H_
