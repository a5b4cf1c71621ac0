// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/metrics.h"

#include <bit>
#include <cmath>

namespace octopus::server {

int LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < kSubBuckets) return static_cast<int>(nanos);
  const int octave = std::bit_width(nanos) - 1;  // floor(log2), >= 4
  const int sub = static_cast<int>(
      (nanos >> (octave - kFirstOctave)) & (kSubBuckets - 1));
  const int index =
      kSubBuckets + (octave - kFirstOctave) * kSubBuckets + sub;
  return index < kBuckets ? index : kBuckets - 1;
}

uint64_t LatencyHistogram::BucketUpperNanos(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  if (index >= kBuckets - 1) return ~uint64_t{0};  // open-ended top
  const int octave = kFirstOctave + (index - kSubBuckets) / kSubBuckets;
  const int sub = (index - kSubBuckets) % kSubBuckets;
  const uint64_t base = uint64_t{1} << octave;
  const uint64_t width = uint64_t{1} << (octave - kFirstOctave);
  return base + static_cast<uint64_t>(sub + 1) * width - 1;
}

std::vector<uint64_t> LatencyHistogram::BucketUpperBounds() {
  std::vector<uint64_t> bounds(kBuckets);
  for (int i = 0; i < kBuckets; ++i) bounds[i] = BucketUpperNanos(i);
  return bounds;
}

void LatencyHistogram::Record(uint64_t nanos) {
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  // CAS-max: lossless under concurrent writers.
  uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
  }
  // Saturating sum: one u64-max sample must not wrap the total.
  uint64_t sum = sum_nanos_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next = sum + nanos < sum ? ~uint64_t{0} : sum + nanos;
    if (sum_nanos_.compare_exchange_weak(sum, next,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  const uint64_t other_max = other.max_nanos();
  while (other_max > seen &&
         !max_nanos_.compare_exchange_weak(seen, other_max,
                                           std::memory_order_relaxed)) {
  }
  uint64_t sum = sum_nanos_.load(std::memory_order_relaxed);
  const uint64_t add = other.sum_nanos();
  for (;;) {
    const uint64_t next = sum + add < sum ? ~uint64_t{0} : sum + add;
    if (sum_nanos_.compare_exchange_weak(sum, next,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<uint64_t> counts(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void LatencyHistogram::CopyFrom(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  max_nanos_.store(other.max_nanos(), std::memory_order_relaxed);
  sum_nanos_.store(other.sum_nanos(), std::memory_order_relaxed);
}

uint64_t LatencyHistogram::PercentileNanos(double p) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the quantile sample, 1-based (nearest-rank definition:
  // ceil(p * n), clamped to [1, n]).
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  const uint64_t observed_max = max_nanos();
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // A bucket's nominal bound can overshoot the samples inside it
      // (and the top bucket is open-ended); report no more than the
      // observed max.
      const uint64_t upper = BucketUpperNanos(i);
      return upper < observed_max ? upper : observed_max;
    }
  }
  return observed_max;
}

void ServerMetrics::CopyFrom(const ServerMetrics& other) {
  const auto copy = [](auto& to, const auto& from) {
    to.store(from.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  };
  copy(connections_accepted, other.connections_accepted);
  copy(connections_closed, other.connections_closed);
  copy(frames_received, other.frames_received);
  copy(malformed_frames, other.malformed_frames);
  copy(queries_received, other.queries_received);
  copy(queries_rejected, other.queries_rejected);
  copy(queries_executed, other.queries_executed);
  copy(batches_executed, other.batches_executed);
  copy(results_sent, other.results_sent);
  copy(errors_sent, other.errors_sent);
  copy(slow_queries, other.slow_queries);
  copy(serialize_nanos_total, other.serialize_nanos_total);
  request_latency = other.request_latency;
  loop_stall = other.loop_stall;
  const PhaseStats engine = other.EngineTotal();
  common::MutexLock lock(engine_mu_);
  engine_total = engine;
}

namespace {

using S = MetricsSource;
constexpr MetricType kCounter = MetricType::kCounter;
constexpr MetricType kGauge = MetricType::kGauge;
constexpr MetricType kHistogram = MetricType::kHistogram;

// Readers of one MetricsSource field.
#define FIELD(field) \
  [](const S& s) -> uint64_t { return static_cast<uint64_t>(s.field); }
#define HISTOGRAM(field) \
  [](const S& s) -> const LatencyHistogram& { return s.field; }

const MetricDef kMetricTable[] = {
    {"octopus_connections_accepted_total", kCounter,
     FIELD(metrics.connections_accepted),
     "TCP connections accepted."},
    {"octopus_connections_closed_total", kCounter,
     FIELD(metrics.connections_closed),
     "TCP connections closed."},
    {"octopus_connections_active", kGauge, FIELD(metrics.connections_active()),
     "Currently open sessions."},
    {"octopus_io_threads", kGauge, FIELD(io_threads),
     "I/O threads serving connections (sharded by fd)."},
    {"octopus_frames_received_total", kCounter, FIELD(metrics.frames_received),
     "Complete OCTP frames parsed."},
    {"octopus_malformed_frames_total", kCounter,
     FIELD(metrics.malformed_frames),
     "Frames rejected as malformed."},
    {"octopus_queries_received_total", kCounter,
     FIELD(metrics.queries_received),
     "Range queries received in QUERY_BATCH frames."},
    {"octopus_queries_rejected_total", kCounter,
     FIELD(metrics.queries_rejected),
     "Queries rejected (admission control or EPOCH_GONE)."},
    {"octopus_queries_executed_total", kCounter,
     FIELD(metrics.queries_executed),
     "Queries executed by the engine."},
    {"octopus_batches_executed_total", kCounter,
     FIELD(metrics.batches_executed),
     "Coalesced engine batches executed."},
    {"octopus_results_sent_total", kCounter, FIELD(metrics.results_sent),
     "RESULT frames enqueued."},
    {"octopus_errors_sent_total", kCounter, FIELD(metrics.errors_sent),
     "ERROR frames enqueued."},
    {"octopus_slow_queries_total", kCounter, FIELD(metrics.slow_queries),
     "Requests over the --slow-query-ms threshold."},
    {"octopus_serialize_seconds_total", kCounter,
     FIELD(metrics.serialize_nanos_total),
     "Wall clock spent encoding RESULT frames.", true},
    {"octopus_request_latency_seconds", kHistogram,
     HISTOGRAM(metrics.request_latency),
     "Request arrival to response enqueue."},
    {"octopus_loop_stall_seconds", kHistogram, HISTOGRAM(metrics.loop_stall),
     "I/O-loop busy time per wakeup while sessions exist, merged across I/O "
     "threads."},
    {"octopus_engine_probe_seconds_total", kCounter, FIELD(engine.probe_nanos),
     "Surface-probe phase wall clock.", true},
    {"octopus_engine_walk_seconds_total", kCounter, FIELD(engine.walk_nanos),
     "Directed-walk phase wall clock.", true},
    {"octopus_engine_crawl_seconds_total", kCounter, FIELD(engine.crawl_nanos),
     "Crawl phase wall clock.", true},
    {"octopus_engine_merge_seconds_total", kCounter, FIELD(engine.merge_nanos),
     "Batch-end stats-merge wall clock.", true},
    {"octopus_queries_routed_octopus_total", kCounter,
     [](const S& s) -> uint64_t {
       return s.engine.queries - s.engine.scan_queries;
     },
     "Queries the Eq. 6 route sent to probe, walk and crawl."},
    {"octopus_queries_routed_scan_total", kCounter,
     FIELD(engine.scan_queries),
     "Queries the Eq. 6 route sent to the tiled scan."},
    {"octopus_page_hits_total", kCounter, FIELD(engine.page_io.page_hits),
     "Priced page accesses served by the pool."},
    {"octopus_page_misses_total", kCounter, FIELD(engine.page_io.page_misses),
     "Priced page accesses that read from disk."},
    {"octopus_page_evictions_total", kCounter,
     FIELD(engine.page_io.page_evictions),
     "Pages evicted during query execution."},
    {"octopus_lease_hits_total", kCounter, FIELD(engine.page_io.lease_hits),
     "Reads served free through a held lease."},
    {"octopus_pages_leased_total", kCounter, FIELD(engine.page_io.pages_leased),
     "Lease acquisitions (first touch per batch)."},
    {"octopus_pages_distinct_total", kCounter,
     FIELD(engine.page_io.pages_distinct),
     "Distinct pages touched across batches."},
    {"octopus_lease_revocations_total", kCounter,
     FIELD(engine.page_io.lease_revocations),
     "Leases dropped before batch end (pool pressure)."},
    {"octopus_current_epoch", kGauge, FIELD(epoch.epoch),
     "Newest published epoch id."},
    {"octopus_steps_applied_total", kCounter, FIELD(epoch.step),
     "Simulation steps applied by the backend."},
    {"octopus_epoch_resident_epochs", kGauge, FIELD(resident_epochs),
     "Epochs held memory-resident."},
    {"octopus_epoch_spilled_epochs", kGauge, FIELD(spilled_epochs),
     "Epochs living only in the spill sidecar."},
    {"octopus_epoch_resident_bytes", kGauge, FIELD(epoch_resident_bytes),
     "Bytes of resident epoch position state."},
    {"octopus_epochs_evicted_total", kCounter, FIELD(epochs_evicted),
     "Epochs evicted past the history cap."},
    {"octopus_epoch_spill_pages_written_total", kCounter,
     FIELD(spill_pages_written),
     "Pages written to the spill sidecar."},
    {"octopus_epoch_spill_bytes_written_total", kCounter,
     FIELD(spill_bytes_written),
     "Bytes written to the spill sidecar."},
    {"octopus_epoch_sidecar_bytes", kGauge, FIELD(sidecar_bytes),
     "Size of the spill sidecar file."},
    {"octopus_epoch_spill_pages_free", kGauge, FIELD(spill_pages_free),
     "Sidecar pages free for reuse by the next spill."},
    {"octopus_epoch_reload_pages_total", kCounter, FIELD(epoch_reload_pages),
     "Sidecar pages read back for batches at spilled epochs."},
    {"octopus_buffer_pool_cap_bytes", kGauge, FIELD(pool_cap_bytes),
     "Configured buffer-pool byte cap."},
    {"octopus_buffer_pool_resident_bytes", kGauge, FIELD(pool_resident_bytes),
     "Frame bytes actually allocated (high-water)."},
    {"octopus_buffer_pool_evictions_total", kCounter, FIELD(pool_evictions),
     "Pool-wide evictions across every consumer."},
    {"octopus_sessions_pinned_epochs", kGauge, FIELD(session_pins),
     "Outstanding session epoch pins."},
    {"octopus_trace_records_total", kCounter, FIELD(trace_records),
     "Flight-recorder records written (lifetime)."},
    {"octopus_trace_ring_records", kGauge, FIELD(trace_ring_records),
     "Records currently held in the flight-recorder ring."},
    {"octopus_journal_events_total", kCounter, FIELD(journal_events),
     "Lifecycle events emitted into the journal (lifetime)."},
    {"octopus_journal_ring_events", kGauge, FIELD(journal_ring_events),
     "Events currently held in the journal ring."},
};

#undef FIELD
#undef HISTOGRAM

}  // namespace

std::span<const MetricDef> MetricTable() { return kMetricTable; }

void EmitMetrics(const MetricsSource& source, obs::MetricsRegistry* registry,
                 StatsWire* stats) {
  constexpr double kNano = 1e-9;
  static const std::vector<uint64_t> kBounds =
      LatencyHistogram::BucketUpperBounds();
  for (const MetricDef& row : kMetricTable) {
    const std::string name = row.name;
    if (row.type == kHistogram) {
      // std::get throws if a histogram row holds a scalar reader.
      // The source is a copy, so count() equals the rendered buckets'
      // total.
      const LatencyHistogram& histogram = std::get<1>(row.read)(source);
      const double sum = static_cast<double>(histogram.sum_nanos()) * kNano;
      if (registry != nullptr) {
        registry->AddNanosHistogram(name, row.help, histogram.bucket_counts(),
                                    kBounds, sum);
      }
      if (stats != nullptr) {
        stats->samples.push_back(
            {name + "_count", static_cast<double>(histogram.count())});
        stats->samples.push_back({name + "_sum", sum});
      }
      continue;
    }
    const double value = static_cast<double>(std::get<0>(row.read)(source)) *
                         (row.seconds ? kNano : 1);
    if (registry != nullptr && row.type == kGauge) {
      registry->AddGauge(name, row.help, value);
    } else if (registry != nullptr) {
      registry->AddCounter(name, row.help, value);
    }
    if (stats != nullptr) stats->samples.push_back({name, value});
  }
}

}  // namespace octopus::server
