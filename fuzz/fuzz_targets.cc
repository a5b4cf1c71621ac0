// Copyright 2026 The OCTOPUS Reproduction Authors
#include "fuzz/fuzz_targets.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <vector>

#include "obs/http_endpoint.h"
#include "server/protocol.h"

namespace octopus::fuzz {
namespace {

using server::Buffer;
using server::FrameHeader;
using server::FrameType;

/// Runs every parser that could plausibly consume `payload` for
/// `type`. Parsers must reject garbage with a Status — never read out
/// of bounds (ASan's job to disprove) and never crash.
void ParsePayload(FrameType type, std::span<const uint8_t> payload) {
  switch (type) {
    case FrameType::kHello: {
      server::HelloFrame hello;
      (void)server::ParseHello(payload, &hello);
      break;
    }
    case FrameType::kWelcome: {
      server::WelcomeFrame welcome;
      (void)server::ParseWelcome(payload, &welcome);
      break;
    }
    case FrameType::kQueryBatch: {
      uint64_t request_id = 0;
      std::vector<AABB> boxes;
      uint64_t epoch = 0;
      uint64_t span_id = 0;
      const Status st = server::ParseQueryBatch(payload, &request_id,
                                                &boxes, &epoch, &span_id);
      if (st.ok()) {
        // The parser's count word and the boxes it returns must agree;
        // a mismatch would let a peer lie about its payload size.
        assert(payload.size() == server::kQueryBatchFixedBytes +
                                     boxes.size() * server::kQueryBoxBytes);
      }
      break;
    }
    case FrameType::kResult: {
      uint64_t request_id = 0;
      server::BatchStatsWire stats;
      std::vector<std::vector<VertexId>> per_query;
      const Status st =
          server::ParseResult(payload, &request_id, &stats, &per_query);
      if (st.ok()) {
        assert(payload.size() == server::ResultPayloadBytes(per_query));
      }
      break;
    }
    case FrameType::kStats: {
      server::StatsWire stats;
      if (server::ParseStats(payload, &stats).ok()) {
        // An accepted STATS re-encodes to the very same bytes and
        // parses back to the same samples.
        Buffer again;
        server::AppendStats(&again, stats);
        const std::span<const uint8_t> body =
            std::span<const uint8_t>(again).subspan(
                server::kFrameHeaderBytes);
        assert(std::equal(body.begin(), body.end(), payload.begin(),
                          payload.end()));
        server::StatsWire reparsed;
        const bool reparsed_ok = server::ParseStats(body, &reparsed).ok();
        assert(reparsed_ok && reparsed.samples == stats.samples);
      }
      break;
    }
    case FrameType::kError: {
      server::ErrorFrame error;
      (void)server::ParseError(payload, &error);
      break;
    }
    case FrameType::kStep: {
      server::StepFrame step;
      const Status st = server::ParseStep(payload, &step);
      // The inline-execution cap is enforced by the parser itself: an
      // accepted STEP can never carry an unbounded amount of work.
      if (st.ok()) assert(step.steps <= server::kMaxStepsPerFrame);
      break;
    }
    case FrameType::kEpochInfo: {
      server::EpochInfoWire info;
      (void)server::ParseEpochInfo(payload, &info);
      break;
    }
    case FrameType::kPinEpoch:
    case FrameType::kUnpinEpoch: {
      server::PinEpochFrame pin;
      (void)server::ParsePinEpoch(payload, &pin);
      break;
    }
    case FrameType::kTraceDump: {
      server::TraceDumpWire dump;
      const Status st = server::ParseTraceDump(payload, &dump);
      if (st.ok()) {
        assert(payload.size() ==
               server::kTraceDumpFixedBytes +
                   dump.records.size() * server::kTraceRecordBytes);
      }
      break;
    }
    case FrameType::kStatsRequest:
    case FrameType::kTraceDumpRequest:
      // Empty-payload verbs; nothing to parse.
      break;
  }
}

}  // namespace

void FuzzProtocolFrame(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);
  if (size >= server::kFrameHeaderBytes) {
    const Result<FrameHeader> header = server::ParseFrameHeader(bytes);
    if (header.ok()) {
      // Feed the declared frame type whatever bytes follow the header
      // — including payloads that disagree with `payload_bytes`, which
      // is exactly what a broken peer would send.
      ParsePayload(header.Value().type,
                   bytes.subspan(server::kFrameHeaderBytes));
    }
  }
  // Truncation sweep: every prefix must fail cleanly too (the framing
  // layer sees partial frames on every short read). Capped so huge
  // inputs don't turn one exec quadratic.
  const size_t cuts = size < 64 ? size : 64;
  for (size_t cut = 0; cut < cuts; ++cut) {
    if (cut >= server::kFrameHeaderBytes) {
      (void)server::ParseFrameHeader(bytes.first(cut));
    }
    ParsePayload(FrameType::kQueryBatch, bytes.first(cut));
    ParsePayload(FrameType::kResult, bytes.first(cut));
    ParsePayload(FrameType::kStats, bytes.first(cut));
    ParsePayload(FrameType::kTraceDump, bytes.first(cut));
  }
}

void FuzzHttpRequest(const uint8_t* data, size_t size) {
  const std::string head(reinterpret_cast<const char*>(data), size);
  bool handled = false;
  const obs::HttpTextEndpoint::Response response =
      obs::HttpTextEndpoint::RouteRequestHead(
          head, [&handled](const std::string& path) {
            handled = true;
            // The router must strip the query string before the
            // handler sees the path — the live server's routes match
            // on exact strings.
            assert(path.find('?') == std::string::npos);
            if (path == "/metrics" || path == "/healthz") {
              obs::HttpTextEndpoint::Response ok;
              ok.body = "ok\n";
              return ok;
            }
            return obs::HttpTextEndpoint::NotFound();
          });
  // Routed requests answer what the handler said; unrouted ones must
  // be a client-error status, never a silent 200.
  assert(handled || response.status == 400 || response.status == 405);
  (void)response;
}

}  // namespace octopus::fuzz
