// Copyright 2026 The OCTOPUS Reproduction Authors
// Wire-protocol tests: every frame type must round-trip encode -> parse
// bit-exactly, and every class of malformed input (truncation, size
// lies, bad types, oversized payloads) must fail with a Status — never
// crash, never read out of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "fuzz/fuzz_targets.h"
#include "server/protocol.h"

namespace octopus::server {
namespace {

/// Splits an encoded buffer into (header, payload) and checks the
/// announced length matches the encoded payload.
struct SplitFrame {
  FrameHeader header;
  std::span<const uint8_t> payload;
};

SplitFrame Split(const Buffer& buffer) {
  auto header = ParseFrameHeader(buffer);
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(buffer.size(),
            kFrameHeaderBytes + header.Value().payload_bytes);
  return {header.Value(),
          std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes)};
}

TEST(ProtocolTest, HelloRoundTrip) {
  Buffer buffer;
  HelloFrame hello;
  hello.flags = 0x1234;
  AppendHello(&buffer, hello);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kHello);

  HelloFrame parsed;
  ASSERT_TRUE(ParseHello(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.magic, kProtocolMagic);
  EXPECT_EQ(parsed.version, kProtocolVersion);
  EXPECT_EQ(parsed.flags, 0x1234);
}

TEST(ProtocolTest, WelcomeRoundTrip) {
  Buffer buffer;
  WelcomeFrame welcome;
  welcome.paged = 1;
  welcome.num_vertices = 123456789012345ull;
  welcome.page_bytes = 4096;
  welcome.max_batch_queries = 1024;
  AppendWelcome(&buffer, welcome);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kWelcome);

  WelcomeFrame parsed;
  ASSERT_TRUE(ParseWelcome(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.version, kProtocolVersion);
  EXPECT_EQ(parsed.paged, 1);
  EXPECT_EQ(parsed.num_vertices, welcome.num_vertices);
  EXPECT_EQ(parsed.page_bytes, welcome.page_bytes);
  EXPECT_EQ(parsed.max_batch_queries, welcome.max_batch_queries);
}

TEST(ProtocolTest, QueryBatchRoundTripBitExact) {
  std::vector<AABB> boxes;
  boxes.push_back(AABB(Vec3(0.1f, -2.5f, 3e-8f), Vec3(1.0f, 2.0f, 3.0f)));
  boxes.push_back(AABB(Vec3(-1e30f, 0.0f, 5.5f),
                       Vec3(std::numeric_limits<float>::max(), 1.0f,
                            6.25f)));
  Buffer buffer;
  AppendQueryBatch(&buffer, 42, boxes);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kQueryBatch);

  uint64_t request_id = 0;
  uint64_t epoch = 99;
  uint64_t span = 99;
  std::vector<AABB> parsed;
  ASSERT_TRUE(ParseQueryBatch(frame.payload, &request_id, &parsed, &epoch,
                              &span)
                  .ok());
  EXPECT_EQ(request_id, 42u);
  EXPECT_EQ(epoch, 0u);  // default: the server's current epoch
  EXPECT_EQ(span, 0u);   // default: no client span (v6)
  ASSERT_EQ(parsed.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    // Bit-exact: the query a client sends is the query the engine runs.
    EXPECT_EQ(std::memcmp(&parsed[i], &boxes[i], sizeof(AABB)), 0)
        << "box " << i;
  }
}

TEST(ProtocolTest, QueryBatchCarriesHistoricalEpoch) {
  // v3: a repeatable-read client targets an exact past epoch.
  const std::vector<AABB> boxes = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  Buffer buffer;
  AppendQueryBatch(&buffer, 8, boxes, /*epoch=*/987654321098ull);
  const SplitFrame frame = Split(buffer);
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint64_t span = 0;
  std::vector<AABB> parsed;
  ASSERT_TRUE(ParseQueryBatch(frame.payload, &request_id, &parsed, &epoch,
                              &span)
                  .ok());
  EXPECT_EQ(request_id, 8u);
  EXPECT_EQ(epoch, 987654321098ull);
  ASSERT_EQ(parsed.size(), 1u);
}

TEST(ProtocolTest, QueryBatchCarriesClientSpanId) {
  // v6: the client's span id travels with the request so the server's
  // slow-query log (and a merged trace) can name the caller's span.
  const std::vector<AABB> boxes = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  Buffer buffer;
  AppendQueryBatch(&buffer, 9, boxes, /*epoch=*/5,
                   /*client_span_id=*/0xfeedface12345678ull);
  const SplitFrame frame = Split(buffer);
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint64_t span = 0;
  std::vector<AABB> parsed;
  ASSERT_TRUE(ParseQueryBatch(frame.payload, &request_id, &parsed, &epoch,
                              &span)
                  .ok());
  EXPECT_EQ(request_id, 9u);
  EXPECT_EQ(epoch, 5u);
  EXPECT_EQ(span, 0xfeedface12345678ull);
}

TEST(ProtocolTest, EmptyQueryBatchRoundTrip) {
  Buffer buffer;
  AppendQueryBatch(&buffer, 7, {});
  const SplitFrame frame = Split(buffer);
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint64_t span = 0;
  std::vector<AABB> parsed = {AABB(Vec3(1, 1, 1), Vec3(2, 2, 2))};
  ASSERT_TRUE(ParseQueryBatch(frame.payload, &request_id, &parsed, &epoch,
                              &span)
                  .ok());
  EXPECT_EQ(request_id, 7u);
  EXPECT_TRUE(parsed.empty());
}

TEST(ProtocolTest, ResultRoundTrip) {
  BatchStatsWire stats;
  stats.probe_nanos = 111;
  stats.walk_nanos = 222;
  stats.crawl_nanos = 333;
  stats.queries = 3;
  stats.probed_vertices = 44;
  stats.walk_invocations = 5;
  stats.walk_vertices = 66;
  stats.crawl_edges = 777;
  stats.result_vertices = 8;
  stats.page_hits = 9;
  stats.page_misses = 10;
  stats.page_evictions = 11;
  stats.lease_hits = 1200;
  stats.pages_leased = 13;
  stats.pages_distinct = 14;
  stats.batch_queries = 3;
  stats.batch_requests = 2;
  stats.epoch = engine::EpochInfo{42, 7};
  stats.trace_id = 0xabcdef0123456789ull;
  const std::vector<std::vector<VertexId>> per_query = {
      {5, 1, 9}, {}, {1234567}};

  Buffer buffer;
  AppendResult(&buffer, 99, stats, per_query);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kResult);

  uint64_t request_id = 0;
  BatchStatsWire parsed_stats;
  std::vector<std::vector<VertexId>> parsed;
  ASSERT_TRUE(
      ParseResult(frame.payload, &request_id, &parsed_stats, &parsed)
          .ok());
  EXPECT_EQ(request_id, 99u);
  EXPECT_EQ(parsed, per_query);
  const PhaseStats round = parsed_stats.ToPhaseStats();
  EXPECT_EQ(round.probe_nanos, 111);
  EXPECT_EQ(round.walk_nanos, 222);
  EXPECT_EQ(round.crawl_nanos, 333);
  EXPECT_EQ(round.queries, 3u);
  EXPECT_EQ(round.probed_vertices, 44u);
  EXPECT_EQ(round.walk_invocations, 5u);
  EXPECT_EQ(round.walk_vertices, 66u);
  EXPECT_EQ(round.crawl_edges, 777u);
  EXPECT_EQ(round.result_vertices, 8u);
  EXPECT_EQ(round.page_io.page_hits, 9u);
  EXPECT_EQ(round.page_io.page_misses, 10u);
  EXPECT_EQ(round.page_io.page_evictions, 11u);
  // v4 lease counters round-trip through the grown stats block.
  EXPECT_EQ(round.page_io.lease_hits, 1200u);
  EXPECT_EQ(round.page_io.pages_leased, 13u);
  EXPECT_EQ(round.page_io.pages_distinct, 14u);
  EXPECT_EQ(parsed_stats.batch_queries, 3u);
  EXPECT_EQ(parsed_stats.batch_requests, 2u);
  // Epoch-stamped RESULT: the id round-trips and doubles as staleness.
  EXPECT_EQ(parsed_stats.epoch, (engine::EpochInfo{42, 7}));
  EXPECT_EQ(round.stale_steps, 7u);
  // v6: the server's flight-recorder id rides in the stats block.
  EXPECT_EQ(parsed_stats.trace_id, 0xabcdef0123456789ull);
}

TEST(ProtocolTest, StepRoundTrip) {
  Buffer buffer;
  AppendStep(&buffer, StepFrame{5});
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kStep);
  StepFrame parsed;
  ASSERT_TRUE(ParseStep(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.steps, 5u);
  // Truncated payload must fail, never read past the end.
  EXPECT_FALSE(
      ParseStep(frame.payload.subspan(0, 4), &parsed).ok());
  // Steps execute inline on the event loop: a count above the cap is
  // rejected at parse time, before any work happens.
  Buffer capped;
  AppendStep(&capped, StepFrame{kMaxStepsPerFrame});
  ASSERT_TRUE(
      ParseStep(Split(capped).payload, &parsed).ok());
  Buffer over;
  AppendStep(&over, StepFrame{kMaxStepsPerFrame + 1});
  EXPECT_FALSE(ParseStep(Split(over).payload, &parsed).ok());
}

TEST(ProtocolTest, PinAndUnpinEpochRoundTrip) {
  for (const bool unpin : {false, true}) {
    SCOPED_TRACE(unpin ? "UNPIN_EPOCH" : "PIN_EPOCH");
    Buffer buffer;
    const PinEpochFrame request{123456789012345ull};
    if (unpin) {
      AppendUnpinEpoch(&buffer, request);
    } else {
      AppendPinEpoch(&buffer, request);
    }
    const SplitFrame frame = Split(buffer);
    EXPECT_EQ(frame.header.type,
              unpin ? FrameType::kUnpinEpoch : FrameType::kPinEpoch);
    EXPECT_EQ(frame.header.payload_bytes, 8u);
    PinEpochFrame parsed;
    ASSERT_TRUE(ParsePinEpoch(frame.payload, &parsed).ok());
    EXPECT_EQ(parsed.epoch, request.epoch);
    // Every truncation point must fail cleanly, never read past the
    // end; trailing bytes are rejected too.
    for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
      EXPECT_FALSE(ParsePinEpoch(frame.payload.first(cut), &parsed).ok())
          << "cut at " << cut;
    }
    Buffer longer(buffer);
    longer.push_back(0);
    EXPECT_FALSE(ParsePinEpoch(std::span<const uint8_t>(longer)
                                   .subspan(kFrameHeaderBytes),
                               &parsed)
                     .ok());
  }
}

TEST(ProtocolTest, EpochGoneErrorRoundTrip) {
  Buffer buffer;
  ErrorFrame error;
  error.code = ErrorCode::kEpochGone;
  error.request_id = 77;
  error.message = "epoch 3 is gone: evicted from the bounded history";
  AppendError(&buffer, error);
  ErrorFrame parsed;
  ASSERT_TRUE(ParseError(std::span<const uint8_t>(buffer)
                             .subspan(kFrameHeaderBytes),
                         &parsed)
                  .ok());
  EXPECT_EQ(parsed.code, ErrorCode::kEpochGone);
  EXPECT_EQ(parsed.request_id, 77u);
  EXPECT_STREQ(ErrorCodeName(parsed.code), "EPOCH_GONE");
  // One past the newest code is still unknown.
  buffer[kFrameHeaderBytes] = 11;
  EXPECT_FALSE(ParseError(std::span<const uint8_t>(buffer)
                              .subspan(kFrameHeaderBytes),
                          &parsed)
                   .ok());
}

TEST(ProtocolTest, EpochInfoRoundTrip) {
  EpochInfoWire info;
  info.epoch = 987654321098ull;
  info.step = 4242;
  info.dynamic = 1;
  info.deformer_kind = 3;
  info.last_step_pages_rewritten = 77;
  Buffer buffer;
  AppendEpochInfo(&buffer, info);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kEpochInfo);
  EpochInfoWire parsed;
  ASSERT_TRUE(ParseEpochInfo(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.epoch, info.epoch);
  EXPECT_EQ(parsed.step, info.step);
  EXPECT_EQ(parsed.dynamic, 1);
  EXPECT_EQ(parsed.deformer_kind, 3);
  EXPECT_EQ(parsed.last_step_pages_rewritten, 77u);
  EXPECT_FALSE(
      ParseEpochInfo(frame.payload.subspan(0, 12), &parsed).ok());
}

TEST(ProtocolTest, BatchStatsFromPhaseStatsRoundTrip) {
  PhaseStats stats;
  stats.probe_nanos = 1;
  stats.queries = 2;
  stats.probed_vertices = 3;
  stats.crawl_edges = 4;
  stats.page_io.page_misses = 5;
  stats.page_io.lease_hits = 60;
  stats.page_io.pages_leased = 7;
  stats.page_io.pages_distinct = 8;
  const BatchStatsWire wire = BatchStatsWire::FromPhaseStats(
      stats, 7, 2, engine::EpochInfo{12, 3});
  EXPECT_EQ(wire.batch_queries, 7u);
  EXPECT_EQ(wire.batch_requests, 2u);
  EXPECT_EQ(wire.epoch.epoch, 12u);
  EXPECT_EQ(wire.epoch.step, 3u);
  const PhaseStats back = wire.ToPhaseStats();
  EXPECT_EQ(back.probe_nanos, stats.probe_nanos);
  EXPECT_EQ(back.queries, stats.queries);
  EXPECT_EQ(back.probed_vertices, stats.probed_vertices);
  EXPECT_EQ(back.crawl_edges, stats.crawl_edges);
  EXPECT_EQ(back.page_io.page_misses, stats.page_io.page_misses);
  EXPECT_EQ(back.page_io.lease_hits, stats.page_io.lease_hits);
  EXPECT_EQ(back.page_io.pages_leased, stats.page_io.pages_leased);
  EXPECT_EQ(back.page_io.pages_distinct, stats.page_io.pages_distinct);
  // The epoch step doubles as the index-staleness counter.
  EXPECT_EQ(back.stale_steps, 3u);
}

TEST(ProtocolTest, StatsRoundTrip) {
  StatsWire stats;
  stats.samples = {{"octopus_queries_received_total", 500.0},
                   {"octopus_request_latency_seconds_sum", 0.125},
                   {"octopus:current_epoch_2", -0.0}};
  Buffer buffer;
  AppendStats(&buffer, stats);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kStats);
  size_t names = 0;
  for (const StatsSample& sample : stats.samples) {
    names += sample.name.size();
  }
  EXPECT_EQ(frame.payload.size(),
            kStatsFixedBytes + 3 * kStatsSampleFixedBytes + names);

  StatsWire parsed;
  ASSERT_TRUE(ParseStats(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.samples, stats.samples);
  EXPECT_EQ(parsed.Find("octopus_queries_received_total"), 500.0);
  EXPECT_EQ(parsed.Find("octopus_missing_total"), std::nullopt);

  Buffer empty;
  AppendStats(&empty, StatsWire{});
  ASSERT_TRUE(ParseStats(Split(empty).payload, &parsed).ok());
  EXPECT_TRUE(parsed.samples.empty());

  // Hostile payloads: each is the valid one with a single defect.
  const std::vector<uint8_t> good(frame.payload.begin(),
                                  frame.payload.end());
  const size_t name_at = kStatsFixedBytes + 1;  // first sample's name
  const size_t value_at = name_at + stats.samples[0].name.size();
  const auto with = [&](size_t at, std::vector<uint8_t> bytes) {
    std::vector<uint8_t> bad = good;
    std::copy(bytes.begin(), bytes.end(), bad.begin() + at);
    return bad;
  };
  const uint64_t nan_bits =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  std::vector<uint8_t> nan(8);
  std::memcpy(nan.data(), &nan_bits, 8);
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  const struct {
    const char* what;
    std::vector<uint8_t> payload;
  } rejects[] = {
      {"truncated entry", {good.begin(), good.end() - 1}},
      {"count one past the samples", with(0, {4, 0, 0, 0})},
      {"count larger than the payload", with(0, {0xFF, 0xFF, 0xFF, 0xFF})},
      {"trailing bytes", trailing},
      {"empty name", with(name_at - 1, {0})},
      {"illegal name character", with(name_at + 7, {'-'})},
      {"name starting with a digit", with(name_at, {'9'})},
      {"NaN value", with(value_at, nan)},
  };
  for (const auto& reject : rejects) {
    StatsWire out;
    EXPECT_FALSE(ParseStats(reject.payload, &out).ok()) << reject.what;
  }
}

TEST(ProtocolTest, StatsRequestIsEmpty) {
  Buffer buffer;
  AppendStatsRequest(&buffer);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kStatsRequest);
  EXPECT_EQ(frame.header.payload_bytes, 0u);
}

TEST(ProtocolTest, ErrorRoundTrip) {
  Buffer buffer;
  ErrorFrame error;
  error.code = ErrorCode::kOverloaded;
  error.request_id = 321;
  error.message = "pending-query limit reached";
  AppendError(&buffer, error);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kError);

  ErrorFrame parsed;
  ASSERT_TRUE(ParseError(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.code, ErrorCode::kOverloaded);
  EXPECT_EQ(parsed.request_id, 321u);
  EXPECT_EQ(parsed.message, error.message);
  EXPECT_STREQ(ErrorCodeName(parsed.code), "OVERLOADED");
}

obs::QueryTraceRecord MakeTraceRecord(uint64_t seed) {
  obs::QueryTraceRecord rec;
  rec.trace_id = seed;
  rec.session_id = seed * 3 + 1;
  rec.request_id = seed * 7 + 2;
  rec.epoch = 1'000'000'000'000ull + seed;
  rec.epoch_step = static_cast<uint32_t>(seed + 10);
  rec.queries = static_cast<uint32_t>(seed + 1);
  rec.batch_queries = static_cast<uint32_t>(seed + 4);
  rec.batch_requests = static_cast<uint32_t>(seed % 3 + 1);
  rec.arrival_nanos = static_cast<int64_t>(seed) * 1'000'000;
  rec.queue_wait_nanos = 111 + static_cast<int64_t>(seed);
  rec.probe_nanos = 222;
  rec.walk_nanos = 333;
  rec.crawl_nanos = 444;
  rec.merge_nanos = 55;
  rec.serialize_nanos = 66;
  rec.total_nanos = 1231 + static_cast<int64_t>(seed);
  rec.page_accesses = 77 + seed;
  rec.lease_hits = 88;
  rec.result_vertices = 99 + seed;
  return rec;
}

TEST(ProtocolTest, TraceDumpRequestIsEmpty) {
  Buffer buffer;
  AppendTraceDumpRequest(&buffer);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kTraceDumpRequest);
  EXPECT_EQ(frame.header.payload_bytes, 0u);
}

TEST(ProtocolTest, TraceDumpRoundTripBitExact) {
  TraceDumpWire dump;
  dump.total_recorded = 12345;
  dump.records.push_back(MakeTraceRecord(1));
  dump.records.push_back(MakeTraceRecord(2));
  dump.records.push_back(MakeTraceRecord(3));

  Buffer buffer;
  AppendTraceDump(&buffer, dump);
  const SplitFrame frame = Split(buffer);
  EXPECT_EQ(frame.header.type, FrameType::kTraceDump);
  // Fixed-size records: the payload length is fully determined.
  EXPECT_EQ(frame.header.payload_bytes, 16u + 3 * kTraceRecordBytes);

  TraceDumpWire parsed;
  ASSERT_TRUE(ParseTraceDump(frame.payload, &parsed).ok());
  EXPECT_EQ(parsed.total_recorded, 12345u);
  ASSERT_EQ(parsed.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    // Defaulted operator== over every field: bit-exact round trip.
    EXPECT_EQ(parsed.records[i], dump.records[i]) << "record " << i;
  }
}

TEST(ProtocolTest, EmptyTraceDumpRoundTrip) {
  // Tracing disabled on the server: a dump with zero records (and a
  // lifetime count of zero) is a valid answer, not an error.
  TraceDumpWire dump;
  Buffer buffer;
  AppendTraceDump(&buffer, dump);
  TraceDumpWire parsed;
  parsed.records.push_back(MakeTraceRecord(9));
  ASSERT_TRUE(ParseTraceDump(Split(buffer).payload, &parsed).ok());
  EXPECT_EQ(parsed.total_recorded, 0u);
  EXPECT_TRUE(parsed.records.empty());
}

TEST(ProtocolTest, TraceDumpRejectsTruncatedPayload) {
  TraceDumpWire dump;
  dump.total_recorded = 2;
  dump.records.push_back(MakeTraceRecord(1));
  dump.records.push_back(MakeTraceRecord(2));
  Buffer buffer;
  AppendTraceDump(&buffer, dump);
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes);
  TraceDumpWire parsed;
  // Every truncation point — through the header fields and through
  // every record byte — must fail cleanly, never read past the end.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseTraceDump(payload.first(cut), &parsed).ok())
        << "cut at " << cut;
  }
  // Trailing garbage must be rejected too.
  Buffer extended(buffer);
  extended.push_back(0);
  EXPECT_FALSE(ParseTraceDump(std::span<const uint8_t>(extended)
                                  .subspan(kFrameHeaderBytes),
                              &parsed)
                   .ok());
}

TEST(ProtocolTest, TraceDumpRejectsCountLie) {
  // A dump claiming 4 billion records in a small payload must fail
  // before allocating anything.
  TraceDumpWire dump;
  dump.records.push_back(MakeTraceRecord(1));
  Buffer buffer;
  AppendTraceDump(&buffer, dump);
  const uint32_t huge = 0xFFFFFFFF;
  std::memcpy(buffer.data() + kFrameHeaderBytes + 8, &huge, sizeof(huge));
  TraceDumpWire parsed;
  EXPECT_FALSE(ParseTraceDump(std::span<const uint8_t>(buffer)
                                  .subspan(kFrameHeaderBytes),
                              &parsed)
                   .ok());
}

TEST(ProtocolTest, TraceDumpRejectsNonzeroReserved) {
  TraceDumpWire dump;
  dump.records.push_back(MakeTraceRecord(1));
  Buffer buffer;
  AppendTraceDump(&buffer, dump);
  buffer[kFrameHeaderBytes + 12] = 1;  // reserved u32 after the count
  TraceDumpWire parsed;
  EXPECT_FALSE(ParseTraceDump(std::span<const uint8_t>(buffer)
                                  .subspan(kFrameHeaderBytes),
                              &parsed)
                   .ok());
}

// --- Malformed input ---

TEST(ProtocolTest, HeaderRejectsUnknownType) {
  Buffer buffer;
  AppendStatsRequest(&buffer);
  buffer[4] = 0;  // below kHello
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
  buffer[4] = 200;  // far above the known range
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
  // The v3 frames are inside the range.
  buffer[4] = static_cast<uint8_t>(FrameType::kPinEpoch);
  EXPECT_TRUE(ParseFrameHeader(buffer).ok());
  buffer[4] = static_cast<uint8_t>(FrameType::kUnpinEpoch);
  EXPECT_TRUE(ParseFrameHeader(buffer).ok());
  // The v5 trace frames are the newest; one past them is not.
  buffer[4] = static_cast<uint8_t>(FrameType::kTraceDumpRequest);
  EXPECT_TRUE(ParseFrameHeader(buffer).ok());
  buffer[4] = static_cast<uint8_t>(FrameType::kTraceDump);
  EXPECT_TRUE(ParseFrameHeader(buffer).ok());
  buffer[4] = static_cast<uint8_t>(FrameType::kTraceDump) + 1;
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
}

TEST(ProtocolTest, HeaderRejectsOversizedPayload) {
  Buffer buffer(kFrameHeaderBytes, 0);
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(buffer.data(), &huge, sizeof(huge));
  buffer[4] = static_cast<uint8_t>(FrameType::kQueryBatch);
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
}

TEST(ProtocolTest, HeaderRejectsNonzeroReservedBytes) {
  Buffer buffer;
  AppendStatsRequest(&buffer);
  buffer[5] = 1;  // flags byte
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
}

TEST(ProtocolTest, HeaderRejectsShortBuffer) {
  const Buffer buffer(kFrameHeaderBytes - 1, 0);
  EXPECT_FALSE(ParseFrameHeader(buffer).ok());
}

TEST(ProtocolTest, QueryBatchRejectsCountMismatch) {
  Buffer buffer;
  const std::vector<AABB> boxes = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  AppendQueryBatch(&buffer, 1, boxes);
  // Lie about the count: claim 2 queries but carry bytes for 1.
  buffer[kFrameHeaderBytes + 8] = 2;
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint64_t span = 0;
  std::vector<AABB> parsed;
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes);
  EXPECT_FALSE(
      ParseQueryBatch(payload, &request_id, &parsed, &epoch, &span).ok());
}

TEST(ProtocolTest, QueryBatchRejectsTruncatedPayload) {
  Buffer buffer;
  const std::vector<AABB> boxes = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))};
  AppendQueryBatch(&buffer, 1, boxes);
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes);
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint64_t span = 0;
  std::vector<AABB> parsed;
  // Every truncation point must fail cleanly — including cuts through
  // the v3 epoch and v6 client-span fields.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseQueryBatch(payload.first(cut), &request_id,
                                 &parsed, &epoch, &span)
                     .ok())
        << "cut at " << cut;
  }
}

TEST(ProtocolTest, ResultRejectsTruncatedIds) {
  BatchStatsWire stats;
  const std::vector<std::vector<VertexId>> per_query = {{1, 2, 3}};
  Buffer buffer;
  AppendResult(&buffer, 5, stats, per_query);
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes);
  uint64_t request_id = 0;
  BatchStatsWire parsed_stats;
  std::vector<std::vector<VertexId>> parsed;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseResult(payload.first(cut), &request_id,
                             &parsed_stats, &parsed)
                     .ok())
        << "cut at " << cut;
  }
  // Trailing garbage must be rejected too.
  Buffer extended(buffer);
  extended.push_back(0);
  EXPECT_FALSE(
      ParseResult(std::span<const uint8_t>(extended)
                      .subspan(kFrameHeaderBytes),
                  &request_id, &parsed_stats, &parsed)
          .ok());
}

TEST(ProtocolTest, ResultRejectsQueryCountLie) {
  // A RESULT claiming 4 billion queries in a small payload must fail
  // before allocating anything, not resize to the announced count.
  BatchStatsWire stats;
  const std::vector<std::vector<VertexId>> per_query = {{1, 2, 3}};
  Buffer buffer;
  AppendResult(&buffer, 5, stats, per_query);
  const uint32_t huge = 0xFFFFFFFF;
  std::memcpy(buffer.data() + kFrameHeaderBytes + 8, &huge, sizeof(huge));
  uint64_t request_id = 0;
  BatchStatsWire parsed_stats;
  std::vector<std::vector<VertexId>> parsed;
  EXPECT_FALSE(ParseResult(std::span<const uint8_t>(buffer)
                               .subspan(kFrameHeaderBytes),
                           &request_id, &parsed_stats, &parsed)
                   .ok());
}

TEST(ProtocolTest, ErrorRejectsLengthLie) {
  Buffer buffer;
  ErrorFrame error;
  error.code = ErrorCode::kInternal;
  error.message = "boom";
  AppendError(&buffer, error);
  // Claim a longer message than the payload carries.
  buffer[kFrameHeaderBytes + 12] = 200;
  ErrorFrame parsed;
  EXPECT_FALSE(ParseError(std::span<const uint8_t>(buffer)
                              .subspan(kFrameHeaderBytes),
                          &parsed)
                   .ok());
}

TEST(ProtocolTest, ErrorRejectsUnknownCode) {
  Buffer buffer;
  ErrorFrame error;
  error.code = ErrorCode::kInternal;
  AppendError(&buffer, error);
  buffer[kFrameHeaderBytes] = 99;  // no such code
  ErrorFrame parsed;
  EXPECT_FALSE(ParseError(std::span<const uint8_t>(buffer)
                              .subspan(kFrameHeaderBytes),
                          &parsed)
                   .ok());
}

TEST(ProtocolTest, HelloRejectsWrongSize) {
  Buffer buffer;
  AppendHello(&buffer, HelloFrame{});
  HelloFrame parsed;
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(buffer).subspan(kFrameHeaderBytes);
  EXPECT_TRUE(ParseHello(payload, &parsed).ok());
  EXPECT_FALSE(ParseHello(payload.first(7), &parsed).ok());
  Buffer longer(buffer);
  longer.push_back(0);
  EXPECT_FALSE(ParseHello(std::span<const uint8_t>(longer)
                              .subspan(kFrameHeaderBytes),
                          &parsed)
                   .ok());
}

// --- Shared fuzz seed corpus (fuzz/corpus/, tools/gen_fuzz_corpus.py) ---
//
// The truncation/malformation cases above seeded the corpus; replaying
// it through the exact libFuzzer entry points here means the seeds —
// and any crash reproducer later committed next to them — are covered
// by the plain gtest run, with every compiler, in addition to the
// standalone `fuzz_corpus_replay` driver and the CI fuzz smoke.

size_t ReplayCorpusDir(const std::filesystem::path& dir,
                       void (*target)(const uint8_t*, size_t)) {
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    EXPECT_TRUE(in.good()) << entry.path();
    const std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    target(bytes.data(), bytes.size());
    ++replayed;
  }
  return replayed;
}

TEST(ProtocolCorpusTest, ProtocolSeedsNeverCrashTheParsers) {
  const std::filesystem::path dir =
      std::filesystem::path(OCTOPUS_SOURCE_DIR) / "fuzz" / "corpus" /
      "protocol";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  // One well-formed frame of every type plus the malformed/truncated
  // boundary cases; a shrinking corpus means seeds were lost.
  EXPECT_GE(ReplayCorpusDir(dir, fuzz::FuzzProtocolFrame), 25u);
}

// The STATS seeds mean what their names say: the well-formed one
// reaches the fuzz target's round-trip check, the hostile ones are
// rejected.
TEST(ProtocolCorpusTest, StatsSeedsParseAsNamed) {
  const std::filesystem::path dir =
      std::filesystem::path(OCTOPUS_SOURCE_DIR) / "fuzz" / "corpus" /
      "protocol";
  for (const auto& [seed, valid] :
       {std::pair{"stats", true}, {"stats_name_overrun", false},
        {"stats_count_overrun", false}, {"stats_trailing_bytes", false}}) {
    std::ifstream in(dir / (std::string(seed) + ".bin"), std::ios::binary);
    ASSERT_TRUE(in.good()) << seed;
    const Buffer bytes((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    StatsWire stats;
    EXPECT_EQ(ParseStats(Split(bytes).payload, &stats).ok(), valid) << seed;
  }
}

TEST(ProtocolCorpusTest, HttpSeedsNeverCrashTheRouter) {
  const std::filesystem::path dir =
      std::filesystem::path(OCTOPUS_SOURCE_DIR) / "fuzz" / "corpus" /
      "http";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  EXPECT_GE(ReplayCorpusDir(dir, fuzz::FuzzHttpRequest), 6u);
}

}  // namespace
}  // namespace octopus::server
