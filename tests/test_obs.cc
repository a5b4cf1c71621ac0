// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit tests of the observability layer: latency-histogram edge cases
// (0 ns, u64-max, percentile ordering, saturating sum), the derived
// connections-active gauge, flight-recorder ring semantics (disabled,
// wraparound, oldest-first snapshots), the Prometheus exposition
// writer, the Chrome trace-event rendering (server-only and merged
// client+server), client call-span JSONL round trips, and the lifecycle
// event journal (ring wrap, seq monotonicity, JSONL sink, disabled
// no-op), and the server's metric table over an empty source. /metrics
// and OCTP STATS come from one loop over that table; test_server.cc
// compares the two over a live server.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "server/metrics.h"

namespace octopus {
namespace {

using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::QueryTraceRecord;
using server::LatencyHistogram;
using server::ServerMetrics;

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(LatencyHistogramTest, ZeroNanosLandsInTheFirstBucket) {
  LatencyHistogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_nanos(), 0u);
  EXPECT_EQ(h.sum_nanos(), 0u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  // Every percentile of an all-zero population is zero, not garbage.
  EXPECT_EQ(h.PercentileNanos(0.50), 0u);
  EXPECT_EQ(h.PercentileNanos(0.99), 0u);
  EXPECT_EQ(h.PercentileNanos(1.0), 0u);
}

TEST(LatencyHistogramTest, U64MaxLandsInTheTopBucket) {
  LatencyHistogram h;
  h.Record(kU64Max);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_nanos(), kU64Max);
  // floor(log2(u64-max)) == 63: the top bucket, no out-of-range write.
  EXPECT_EQ(h.bucket_counts().back(), 1u);
  // The bucket upper bound would overflow; percentiles clamp to the
  // observed max instead.
  EXPECT_EQ(h.PercentileNanos(0.99), kU64Max);
}

TEST(LatencyHistogramTest, SumSaturatesInsteadOfWrapping) {
  LatencyHistogram h;
  h.Record(kU64Max);
  EXPECT_EQ(h.sum_nanos(), kU64Max);
  h.Record(1);  // would wrap to 0
  EXPECT_EQ(h.sum_nanos(), kU64Max);
  h.Record(kU64Max);  // and stays pinned
  EXPECT_EQ(h.sum_nanos(), kU64Max);
  EXPECT_EQ(h.count(), 3u);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneOverMixedSamples) {
  LatencyHistogram h;
  // 0, then a spread over five decades, then the extremes.
  for (uint64_t nanos : {uint64_t{0}, uint64_t{17}, uint64_t{900},
                         uint64_t{35'000}, uint64_t{2'000'000},
                         uint64_t{750'000'000}, kU64Max}) {
    h.Record(nanos);
  }
  const uint64_t p50 = h.PercentileNanos(0.50);
  const uint64_t p95 = h.PercentileNanos(0.95);
  const uint64_t p99 = h.PercentileNanos(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_nanos());
}

TEST(ServerMetricsTest, ConnectionsActiveSaturatesAtZero) {
  ServerMetrics metrics;
  metrics.connections_accepted = 3;
  metrics.connections_closed = 3;
  EXPECT_EQ(metrics.connections_active(), 0u);
  // A double-close accounting bug must read as 0, not 2^64 - 1.
  metrics.connections_closed = 4;
  EXPECT_EQ(metrics.connections_active(), 0u);
  metrics.connections_accepted = 7;
  EXPECT_EQ(metrics.connections_active(), 3u);
}

// Every row of the metric table renders whatever the server lacks: an
// empty source reads 0 in every sample (the active-connections gauge
// saturates instead of wrapping), one sample per scalar row and
// `_count` + `_sum` per histogram.
TEST(ServerMetricsTest, MetricTableReadsZeroFromAnEmptySource) {
  server::MetricsSource source;
  source.metrics.connections_closed = 1;
  server::StatsWire stats;
  server::EmitMetrics(source, nullptr, &stats);
  size_t expected_samples = 0;
  for (const server::MetricDef& row : server::MetricTable()) {
    expected_samples += row.type == server::MetricType::kHistogram ? 2 : 1;
  }
  ASSERT_EQ(stats.samples.size(), expected_samples);
  for (const server::StatsSample& sample : stats.samples) {
    const double want =
        sample.name == "octopus_connections_closed_total" ? 1.0 : 0.0;
    EXPECT_EQ(sample.value, want) << sample.name;
  }
}

QueryTraceRecord MakeRecord(uint32_t queries) {
  QueryTraceRecord rec;
  rec.session_id = 5;
  rec.request_id = 70 + queries;
  rec.queries = queries;
  rec.arrival_nanos = 1'000 * queries;
  rec.total_nanos = 100;
  return rec;
}

TEST(FlightRecorderTest, DisabledRingRecordsNothing) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.Record(MakeRecord(1)), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.size(), 0u);
  std::vector<QueryTraceRecord> snapshot;
  recorder.Snapshot(&snapshot);
  EXPECT_TRUE(snapshot.empty());
}

TEST(FlightRecorderTest, AssignsMonotone1BasedTraceIds) {
  FlightRecorder recorder(8);
  ASSERT_TRUE(recorder.enabled());
  EXPECT_EQ(recorder.Record(MakeRecord(1)), 1u);
  EXPECT_EQ(recorder.Record(MakeRecord(2)), 2u);
  EXPECT_EQ(recorder.Record(MakeRecord(3)), 3u);
  std::vector<QueryTraceRecord> snapshot;
  recorder.Snapshot(&snapshot);
  ASSERT_EQ(snapshot.size(), 3u);
  // The ring stamps the id into the stored copy.
  EXPECT_EQ(snapshot[0].trace_id, 1u);
  EXPECT_EQ(snapshot[2].trace_id, 3u);
  EXPECT_EQ(snapshot[1].queries, 2u);
}

TEST(FlightRecorderTest, WrapsOverwritingOldestAndSnapshotsInOrder) {
  constexpr size_t kSlots = 4;
  constexpr uint32_t kWrites = 11;  // wraps the ring 2.75 times
  FlightRecorder recorder(kSlots);
  for (uint32_t i = 1; i <= kWrites; ++i) {
    recorder.Record(MakeRecord(i));
  }
  EXPECT_EQ(recorder.total_recorded(), uint64_t{kWrites});
  EXPECT_EQ(recorder.size(), kSlots);
  EXPECT_EQ(recorder.capacity(), kSlots);
  std::vector<QueryTraceRecord> snapshot;
  recorder.Snapshot(&snapshot);
  ASSERT_EQ(snapshot.size(), kSlots);
  // The survivors are exactly the newest kSlots records, oldest first.
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(snapshot[i].trace_id, kWrites - kSlots + 1 + i) << i;
    EXPECT_EQ(snapshot[i].queries, kWrites - kSlots + 1 + i) << i;
  }
}

TEST(MetricsRegistryTest, RendersCountersGaugesAndHelpTypePairs) {
  MetricsRegistry reg;
  reg.AddCounter("octopus_widgets_total", "Widgets made.", 42);
  reg.AddCounter("octopus_busy_seconds_total", "Busy time.", 1.5);
  reg.AddGauge("octopus_temperature", "Now.", -3.25);
  const std::string& text = reg.ExpositionText();
  EXPECT_NE(text.find("# HELP octopus_widgets_total Widgets made.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE octopus_widgets_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\noctopus_widgets_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE octopus_busy_seconds_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\noctopus_busy_seconds_total 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE octopus_temperature gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("\noctopus_temperature -3.25\n"), std::string::npos);
}

/// An `le` bound of `nanos`, rendered exactly as the registry renders
/// it (nanoseconds in base seconds, %.17g).
std::string LeBound(uint64_t nanos) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g",
                static_cast<double>(nanos) / 1e9);
  return buf;
}

TEST(LatencyHistogramTest, SubBucketsSeparateSameOctaveSamples) {
  // The point of the log-linear refinement: 1.0us and 1.5us share a
  // power-of-two octave (a single log2 bucket would collapse them and
  // with them p50/p95/p99 of any sub-2x latency spread), but land in
  // different sixteenth-of-an-octave sub-buckets.
  LatencyHistogram h;
  for (int i = 0; i < 95; ++i) h.Record(1'000);
  for (int i = 0; i < 5; ++i) h.Record(1'500);
  const uint64_t p50 = h.PercentileNanos(0.50);
  const uint64_t p99 = h.PercentileNanos(0.99);
  EXPECT_LT(p50, p99);
  // Each estimate stays within its sub-bucket's ~6% width.
  EXPECT_GE(p50, 1'000u);
  EXPECT_LE(p50, 1'023u);
  EXPECT_GE(p99, 1'472u);
  EXPECT_LE(p99, 1'535u);
}

TEST(LatencyHistogramTest, MergeAddsCountsAndKeepsMax) {
  // Per-I/O-thread stall shards merge into one histogram for
  // snapshots and scrapes.
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(100);
  a.Record(1'000);
  b.Record(1'000);
  b.Record(50'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum_nanos(), 52'100u);
  EXPECT_EQ(a.max_nanos(), 50'000u);
  EXPECT_EQ(b.count(), 2u);  // the source shard is untouched
  EXPECT_LE(a.PercentileNanos(0.99), 50'000u);
}

TEST(MetricsRegistryTest, RendersNanosHistogramCumulativelyInSeconds) {
  LatencyHistogram h;
  h.Record(1);      // exact bucket: le 1 ns
  h.Record(1);      // same bucket again
  h.Record(3);      // exact bucket: le 3 ns
  h.Record(1'500);  // log-linear bucket: le 1535 ns
  MetricsRegistry reg;
  reg.AddNanosHistogram("octopus_lat_seconds", "Latency.",
                        h.bucket_counts(),
                        LatencyHistogram::BucketUpperBounds(),
                        static_cast<double>(h.sum_nanos()) / 1e9);
  const std::string& text = reg.ExpositionText();
  EXPECT_NE(text.find("# TYPE octopus_lat_seconds histogram\n"),
            std::string::npos);
  // Cumulative counts at each occupied bound, in base seconds.
  EXPECT_NE(text.find("octopus_lat_seconds_bucket{le=\"" + LeBound(1) +
                      "\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("octopus_lat_seconds_bucket{le=\"" + LeBound(3) +
                      "\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("octopus_lat_seconds_bucket{le=\"" + LeBound(1'535) +
                      "\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("octopus_lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("octopus_lat_seconds_count 4\n"), std::string::npos);
  char sum[64];
  std::snprintf(sum, sizeof(sum), "%.17g", 1505.0 / 1e9);
  EXPECT_NE(text.find("octopus_lat_seconds_sum " + std::string(sum) +
                      "\n"),
            std::string::npos);
  // Empty buckets are elided: the unoccupied bound between 1 ns and
  // 3 ns, and the whole tail past the last occupied bucket.
  EXPECT_EQ(text.find("le=\"" + LeBound(2) + "\""), std::string::npos);
  EXPECT_EQ(text.find("le=\"" + LeBound(1'599) + "\""), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyHistogramRendersOnlyInfSumCount) {
  LatencyHistogram h;
  MetricsRegistry reg;
  reg.AddNanosHistogram("octopus_idle_seconds", "Never sampled.",
                        h.bucket_counts(),
                        LatencyHistogram::BucketUpperBounds(), 0.0);
  const std::string& text = reg.ExpositionText();
  EXPECT_NE(text.find("octopus_idle_seconds_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("octopus_idle_seconds_count 0\n"),
            std::string::npos);
  EXPECT_EQ(text.find("le=\"" + LeBound(1) + "\""), std::string::npos);
}

TEST(ChromeTraceTest, RendersEveryPhaseSpanEndToEnd) {
  QueryTraceRecord rec;
  rec.trace_id = 9;
  rec.session_id = 3;
  rec.request_id = 77;
  rec.epoch = 5;
  rec.epoch_step = 2;
  rec.queries = 4;
  rec.batch_queries = 8;
  rec.batch_requests = 2;
  rec.arrival_nanos = 1'000'000;
  rec.queue_wait_nanos = 1'000;
  rec.probe_nanos = 2'000;
  rec.walk_nanos = 3'000;
  rec.crawl_nanos = 4'000;
  rec.merge_nanos = 500;
  rec.serialize_nanos = 250;
  rec.total_nanos = 11'000;
  rec.page_accesses = 12;
  rec.lease_hits = 6;
  rec.result_vertices = 345;

  const std::string json = obs::ChromeTraceJson({rec});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The parent span sits on the session's track at the arrival time
  // (microsecond timestamps), annotated with the record's counters.
  EXPECT_NE(json.find("\"name\":\"request\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":3,\"ts\":1000.000,\"dur\":11.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"result_vertices\":345"), std::string::npos);
  // All six child phases appear; queue starts at arrival, probe right
  // after it — laid end to end.
  for (const char* name : {"\"queue\"", "\"probe\"", "\"walk\"",
                           "\"crawl\"", "\"merge\"", "\"serialize\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"name\":\"queue\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":3,\"ts\":1000.000,\"dur\":1.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":3,\"ts\":1001.000,\"dur\":2.000"),
            std::string::npos);
}

TEST(ChromeTraceTest, ElidesZeroDurationSpansAndEmptyInput) {
  QueryTraceRecord rec;
  rec.session_id = 1;
  rec.total_nanos = 100;
  rec.probe_nanos = 100;  // the only non-zero phase
  const std::string json = obs::ChromeTraceJson({rec});
  EXPECT_NE(json.find("\"probe\""), std::string::npos);
  for (const char* name : {"\"queue\"", "\"walk\"", "\"crawl\"",
                           "\"merge\"", "\"serialize\""}) {
    EXPECT_EQ(json.find(name), std::string::npos) << name;
  }
  const std::string empty = obs::ChromeTraceJson({});
  EXPECT_NE(empty.find("\"traceEvents\":[\n\n]}"), std::string::npos);
}

TEST(ClientCallSpanTest, JsonRoundTripsEveryField) {
  obs::ClientCallSpan span;
  span.span_id = 7;
  span.request_id = 42;
  span.server_trace_id = 1234567890123456789ull;
  span.start_unix_nanos = 1'700'000'000'000'000'000;
  span.send_nanos = 1'500;
  span.wait_nanos = 250'000;
  span.recv_nanos = 3'200;
  span.queries = 16;
  span.epoch = 5;
  const std::string line = obs::ClientCallSpanJson(span);
  obs::ClientCallSpan parsed;
  ASSERT_TRUE(obs::ParseClientCallSpanJson(line, &parsed));
  EXPECT_EQ(parsed, span);
}

TEST(ClientCallSpanTest, ParserRejectsJunkAndToleratesMissingFields) {
  obs::ClientCallSpan out;
  EXPECT_FALSE(obs::ParseClientCallSpanJson("", &out));
  EXPECT_FALSE(obs::ParseClientCallSpanJson("# comment line", &out));
  EXPECT_FALSE(obs::ParseClientCallSpanJson("{\"span_id\":0}", &out));
  // A minimal line parses; absent fields default to zero.
  ASSERT_TRUE(obs::ParseClientCallSpanJson("{\"span_id\":3}", &out));
  EXPECT_EQ(out.span_id, 3u);
  EXPECT_EQ(out.server_trace_id, 0u);
  EXPECT_EQ(out.wait_nanos, 0);
}

TEST(MergedChromeTraceTest, NestsMatchedServerRecordInWaitWindow) {
  obs::ClientCallSpan span;
  span.span_id = 1;
  span.request_id = 11;
  span.server_trace_id = 9;
  span.start_unix_nanos = 1'000'000'000;  // rebased to ts 0
  span.send_nanos = 2'000;
  span.wait_nanos = 10'000;
  span.recv_nanos = 1'000;
  span.queries = 4;

  QueryTraceRecord rec;
  rec.trace_id = 9;
  rec.session_id = 3;
  rec.request_id = 11;
  rec.total_nanos = 6'000;
  rec.probe_nanos = 6'000;

  const std::string json = obs::MergedChromeTraceJson({rec}, {span});
  // Client call span at the rebased origin on pid 1.
  EXPECT_NE(json.find("\"name\":\"call\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":0.000,\"dur\":13.000"),
            std::string::npos);
  // wait window is [2000, 12000) ns; slack = 10000 - 6000 = 4000, so
  // the server span starts at 2000 + 2000 = 4000 ns = 4 us on pid 2.
  EXPECT_NE(json.find("\"name\":\"request\",\"ph\":\"X\",\"pid\":2,"
                      "\"tid\":3,\"ts\":4.000,\"dur\":6.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"wire_nanos\":4000"), std::string::npos);
  // Both process tracks are named.
  EXPECT_NE(json.find("\"args\":{\"name\":\"client\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"server\"}"), std::string::npos);
}

TEST(MergedChromeTraceTest, OmitsUnmatchedServerRecords) {
  obs::ClientCallSpan span;
  span.span_id = 1;
  span.server_trace_id = 0;  // server ran untraced
  span.start_unix_nanos = 500;
  span.send_nanos = 100;
  span.wait_nanos = 100;
  span.recv_nanos = 100;
  QueryTraceRecord stranger;  // some other client's request
  stranger.trace_id = 77;
  stranger.session_id = 8;
  stranger.total_nanos = 50;
  const std::string json = obs::MergedChromeTraceJson({stranger}, {span});
  EXPECT_NE(json.find("\"name\":\"call\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_EQ(json.find("\"trace_id\":77"), std::string::npos);
}

using obs::EventJournal;
using obs::EventKind;
using obs::JournalEvent;

TEST(EventJournalTest, DisabledJournalIsANoOp) {
  EventJournal journal;  // no ring, no sink
  EXPECT_FALSE(journal.enabled());
  journal.Emit(EventKind::kStepApplied, 0, 0, 1, 2);
  EXPECT_EQ(journal.total_emitted(), 0u);
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.RenderJson(),
            "{\"total\":0,\"capacity\":0,\"events\":[]}");
}

TEST(EventJournalTest, StampsMonotoneSeqAndWallClock) {
  EventJournal journal(8);
  ASSERT_TRUE(journal.enabled());
  journal.Emit(EventKind::kSessionOpened, 0, 5, 1);
  journal.Emit(EventKind::kEpochPinned, 3, 5, 1);
  journal.Emit(EventKind::kSessionClosed, 0, 5, 0, 1);
  std::vector<JournalEvent> events;
  journal.Snapshot(&events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSessionOpened);
  EXPECT_EQ(events[1].epoch, 3u);
  EXPECT_EQ(events[1].session, 5u);
  EXPECT_EQ(events[2].b, 1u);
  EXPECT_GT(events[0].unix_nanos, 0);
  EXPECT_LE(events[0].unix_nanos, events[2].unix_nanos);
}

TEST(EventJournalTest, WrapsOverwritingOldestAndSnapshotsInOrder) {
  constexpr size_t kSlots = 4;
  constexpr uint64_t kWrites = 11;  // wraps the ring 2.75 times
  EventJournal journal(kSlots);
  for (uint64_t i = 1; i <= kWrites; ++i) {
    journal.Emit(EventKind::kStepApplied, 0, 0, i);
  }
  EXPECT_EQ(journal.total_emitted(), kWrites);
  EXPECT_EQ(journal.size(), kSlots);
  EXPECT_EQ(journal.capacity(), kSlots);
  std::vector<JournalEvent> events;
  journal.Snapshot(&events);
  ASSERT_EQ(events.size(), kSlots);
  // The survivors are the newest kSlots events, oldest first, and seq
  // reflects lifetime position — not ring position.
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(events[i].seq, kWrites - kSlots + 1 + i) << i;
    EXPECT_EQ(events[i].a, kWrites - kSlots + 1 + i) << i;
  }
}

TEST(EventJournalTest, RenderJsonCapsToNewestEvents) {
  EventJournal journal(8);
  for (uint64_t i = 1; i <= 5; ++i) {
    journal.Emit(EventKind::kEpochPublished, i, 0, i * 10);
  }
  const std::string full = journal.RenderJson();
  EXPECT_NE(full.find("\"total\":5,\"capacity\":8"), std::string::npos);
  EXPECT_NE(full.find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(full.find("\"kind\":\"epoch_published\""), std::string::npos);
  const std::string capped = journal.RenderJson(/*max_events=*/2);
  // Only the two newest survive the cap; total still reports lifetime.
  EXPECT_NE(capped.find("\"total\":5"), std::string::npos);
  EXPECT_EQ(capped.find("\"seq\":3,"), std::string::npos);
  EXPECT_NE(capped.find("\"seq\":4,"), std::string::npos);
  EXPECT_NE(capped.find("\"seq\":5,"), std::string::npos);
}

TEST(EventJournalTest, SinkGetsOneJsonLinePerEventEvenWithoutRing) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  {
    EventJournal journal(/*capacity=*/0, sink);
    ASSERT_TRUE(journal.enabled());  // sink alone enables it
    journal.Emit(EventKind::kEpochSpilled, 7, 0, 12, 49'152);
    journal.Emit(EventKind::kDrainBegan, 0, 0, 3);
    EXPECT_EQ(journal.total_emitted(), 2u);
    EXPECT_EQ(journal.size(), 0u);  // no ring
  }
  std::rewind(sink);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), sink), nullptr);
  std::string first(line);
  EXPECT_NE(first.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"epoch_spilled\""), std::string::npos);
  EXPECT_NE(first.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(first.find("\"a\":12"), std::string::npos);
  EXPECT_NE(first.find("\"b\":49152"), std::string::npos);
  ASSERT_NE(std::fgets(line, sizeof(line), sink), nullptr);
  EXPECT_NE(std::string(line).find("\"kind\":\"drain_began\""),
            std::string::npos);
  EXPECT_EQ(std::fgets(line, sizeof(line), sink), nullptr);
  std::fclose(sink);
}

TEST(EventJournalTest, KindNamesAreWireStable) {
  EXPECT_STREQ(obs::EventKindName(EventKind::kStepApplied),
               "step_applied");
  EXPECT_STREQ(obs::EventKindName(EventKind::kOverloadRejected),
               "overload_rejected");
  EXPECT_STREQ(obs::EventKindName(EventKind::kDrainEnded), "drain_ended");
  EXPECT_STREQ(obs::EventKindName(static_cast<EventKind>(200)), "unknown");
}

}  // namespace
}  // namespace octopus
