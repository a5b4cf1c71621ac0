// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace octopus::server {
namespace {

// --- Little-endian primitives ---

void PutU16(Buffer* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(Buffer* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(Buffer* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutI64(Buffer* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutF32(Buffer* out, float v) { PutU32(out, std::bit_cast<uint32_t>(v)); }

/// Bounds-checked sequential reader over a frame payload.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }

  bool U16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool U32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool U64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool F32(float* v) {
    uint32_t u = 0;
    if (!U32(&u)) return false;
    *v = std::bit_cast<float>(u);
    return true;
  }

  bool Bytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, the Prometheus metric-name grammar.
bool IsMetricName(std::string_view name) {
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) return false;
  for (const char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == ':')) {
      return false;
    }
  }
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

/// Reserves the 8-byte header, returning the offset where the payload
/// length must be patched once the payload has been appended.
size_t BeginFrame(Buffer* out, FrameType type) {
  const size_t header_at = out->size();
  PutU32(out, 0);  // payload length, patched by EndFrame
  out->push_back(static_cast<uint8_t>(type));
  out->push_back(0);  // flags, reserved
  PutU16(out, 0);     // reserved
  return header_at;
}

void EndFrame(Buffer* out, size_t header_at) {
  const size_t payload = out->size() - header_at - kFrameHeaderBytes;
  const auto len = static_cast<uint32_t>(payload);
  (*out)[header_at + 0] = static_cast<uint8_t>(len);
  (*out)[header_at + 1] = static_cast<uint8_t>(len >> 8);
  (*out)[header_at + 2] = static_cast<uint8_t>(len >> 16);
  (*out)[header_at + 3] = static_cast<uint8_t>(len >> 24);
}

void PutBatchStats(Buffer* out, const BatchStatsWire& s) {
  PutI64(out, s.probe_nanos);
  PutI64(out, s.walk_nanos);
  PutI64(out, s.crawl_nanos);
  PutI64(out, s.merge_nanos);  // v5
  PutU64(out, s.queries);
  PutU64(out, s.probed_vertices);
  PutU64(out, s.walk_invocations);
  PutU64(out, s.walk_vertices);
  PutU64(out, s.crawl_edges);
  PutU64(out, s.result_vertices);
  PutU64(out, s.page_hits);
  PutU64(out, s.page_misses);
  PutU64(out, s.page_evictions);
  PutU64(out, s.lease_hits);
  PutU64(out, s.pages_leased);
  PutU64(out, s.pages_distinct);
  PutU32(out, s.batch_queries);
  PutU32(out, s.batch_requests);
  PutU64(out, s.epoch.epoch);
  PutU32(out, s.epoch.step);
  PutU32(out, 0);  // reserved
  PutU64(out, s.trace_id);  // v6
}

bool ReadBatchStats(Reader* r, BatchStatsWire* s) {
  uint32_t reserved = 0;
  return r->I64(&s->probe_nanos) && r->I64(&s->walk_nanos) &&
         r->I64(&s->crawl_nanos) && r->I64(&s->merge_nanos) &&
         r->U64(&s->queries) &&
         r->U64(&s->probed_vertices) && r->U64(&s->walk_invocations) &&
         r->U64(&s->walk_vertices) && r->U64(&s->crawl_edges) &&
         r->U64(&s->result_vertices) && r->U64(&s->page_hits) &&
         r->U64(&s->page_misses) && r->U64(&s->page_evictions) &&
         r->U64(&s->lease_hits) && r->U64(&s->pages_leased) &&
         r->U64(&s->pages_distinct) &&
         r->U32(&s->batch_queries) && r->U32(&s->batch_requests) &&
         r->U64(&s->epoch.epoch) && r->U32(&s->epoch.step) &&
         r->U32(&reserved) && r->U64(&s->trace_id);
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic: return "BAD_MAGIC";
    case ErrorCode::kVersionMismatch: return "VERSION_MISMATCH";
    case ErrorCode::kMalformedFrame: return "MALFORMED_FRAME";
    case ErrorCode::kFrameTooLarge: return "FRAME_TOO_LARGE";
    case ErrorCode::kUnexpectedFrame: return "UNEXPECTED_FRAME";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kEpochGone: return "EPOCH_GONE";
  }
  return "UNKNOWN";
}

BatchStatsWire BatchStatsWire::FromPhaseStats(const PhaseStats& stats,
                                              uint32_t batch_queries,
                                              uint32_t batch_requests,
                                              engine::EpochInfo epoch) {
  BatchStatsWire w;
  w.epoch = epoch;
  w.probe_nanos = stats.probe_nanos;
  w.walk_nanos = stats.walk_nanos;
  w.crawl_nanos = stats.crawl_nanos;
  w.merge_nanos = stats.merge_nanos;
  w.queries = stats.queries;
  w.probed_vertices = stats.probed_vertices;
  w.walk_invocations = stats.walk_invocations;
  w.walk_vertices = stats.walk_vertices;
  w.crawl_edges = stats.crawl_edges;
  w.result_vertices = stats.result_vertices;
  w.page_hits = stats.page_io.page_hits;
  w.page_misses = stats.page_io.page_misses;
  w.page_evictions = stats.page_io.page_evictions;
  w.lease_hits = stats.page_io.lease_hits;
  w.pages_leased = stats.page_io.pages_leased;
  w.pages_distinct = stats.page_io.pages_distinct;
  w.batch_queries = batch_queries;
  w.batch_requests = batch_requests;
  return w;
}

PhaseStats BatchStatsWire::ToPhaseStats() const {
  PhaseStats s;
  s.probe_nanos = probe_nanos;
  s.walk_nanos = walk_nanos;
  s.crawl_nanos = crawl_nanos;
  s.merge_nanos = merge_nanos;
  s.queries = queries;
  s.probed_vertices = probed_vertices;
  s.walk_invocations = walk_invocations;
  s.walk_vertices = walk_vertices;
  s.crawl_edges = crawl_edges;
  s.result_vertices = result_vertices;
  s.page_io.page_hits = page_hits;
  s.page_io.page_misses = page_misses;
  s.page_io.page_evictions = page_evictions;
  s.page_io.lease_hits = lease_hits;
  s.page_io.pages_leased = pages_leased;
  s.page_io.pages_distinct = pages_distinct;
  s.stale_steps = epoch.step;
  return s;
}

void AppendHello(Buffer* out, const HelloFrame& hello) {
  const size_t h = BeginFrame(out, FrameType::kHello);
  PutU32(out, hello.magic);
  PutU16(out, hello.version);
  PutU16(out, hello.flags);
  EndFrame(out, h);
}

void AppendWelcome(Buffer* out, const WelcomeFrame& welcome) {
  const size_t h = BeginFrame(out, FrameType::kWelcome);
  PutU16(out, welcome.version);
  out->push_back(welcome.paged);
  out->push_back(welcome.dynamic);
  PutU64(out, welcome.num_vertices);
  PutU32(out, welcome.page_bytes);
  PutU32(out, welcome.max_batch_queries);
  EndFrame(out, h);
}

void AppendQueryBatch(Buffer* out, uint64_t request_id,
                      std::span<const AABB> boxes, uint64_t epoch,
                      uint64_t client_span_id) {
  const size_t h = BeginFrame(out, FrameType::kQueryBatch);
  PutU64(out, request_id);
  PutU32(out, static_cast<uint32_t>(boxes.size()));
  PutU32(out, 0);  // reserved
  PutU64(out, epoch);  // 0 = current (v3)
  PutU64(out, client_span_id);  // 0 = no client span (v6)
  for (const AABB& box : boxes) {
    PutF32(out, box.min.x);
    PutF32(out, box.min.y);
    PutF32(out, box.min.z);
    PutF32(out, box.max.x);
    PutF32(out, box.max.y);
    PutF32(out, box.max.z);
  }
  EndFrame(out, h);
}

size_t ResultPayloadBytes(
    std::span<const std::vector<VertexId>> per_query) {
  size_t bytes = kResultFixedBytes + kBatchStatsBytes;
  for (const std::vector<VertexId>& result : per_query) {
    bytes += 4 + result.size() * sizeof(VertexId);
  }
  return bytes;
}

void AppendResult(Buffer* out, uint64_t request_id,
                  const BatchStatsWire& stats,
                  std::span<const std::vector<VertexId>> per_query) {
  const size_t h = BeginFrame(out, FrameType::kResult);
  PutU64(out, request_id);
  PutU32(out, static_cast<uint32_t>(per_query.size()));
  PutU32(out, 0);  // reserved
  PutBatchStats(out, stats);
  for (const std::vector<VertexId>& result : per_query) {
    PutU32(out, static_cast<uint32_t>(result.size()));
    for (const VertexId v : result) PutU32(out, v);
  }
  EndFrame(out, h);
}

void AppendResultMeta(Buffer* out, uint64_t request_id,
                      const BatchStatsWire& stats,
                      std::span<const std::vector<VertexId>> per_query) {
  const size_t h = BeginFrame(out, FrameType::kResult);
  PutU64(out, request_id);
  PutU32(out, static_cast<uint32_t>(per_query.size()));
  PutU32(out, 0);  // reserved
  PutBatchStats(out, stats);
  for (const std::vector<VertexId>& result : per_query) {
    PutU32(out, static_cast<uint32_t>(result.size()));
  }
  // Not EndFrame: the header must announce the FULL payload, including
  // the vertex ids the writer gathers in from the result vectors.
  const auto len = static_cast<uint32_t>(ResultPayloadBytes(per_query));
  (*out)[h + 0] = static_cast<uint8_t>(len);
  (*out)[h + 1] = static_cast<uint8_t>(len >> 8);
  (*out)[h + 2] = static_cast<uint8_t>(len >> 16);
  (*out)[h + 3] = static_cast<uint8_t>(len >> 24);
}

std::optional<double> StatsWire::Find(std::string_view name) const {
  for (const StatsSample& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return std::nullopt;
}

void AppendStatsRequest(Buffer* out) {
  const size_t h = BeginFrame(out, FrameType::kStatsRequest);
  EndFrame(out, h);
}

void AppendStats(Buffer* out, const StatsWire& stats) {
  const size_t h = BeginFrame(out, FrameType::kStats);
  PutU32(out, static_cast<uint32_t>(stats.samples.size()));
  for (const StatsSample& sample : stats.samples) {
    out->push_back(static_cast<uint8_t>(sample.name.size()));
    out->insert(out->end(), sample.name.begin(), sample.name.end());
    PutU64(out, std::bit_cast<uint64_t>(sample.value));
  }
  EndFrame(out, h);
}

void AppendStep(Buffer* out, const StepFrame& step) {
  const size_t h = BeginFrame(out, FrameType::kStep);
  PutU32(out, step.steps);
  PutU32(out, 0);  // reserved
  EndFrame(out, h);
}

void AppendEpochInfo(Buffer* out, const EpochInfoWire& info) {
  const size_t h = BeginFrame(out, FrameType::kEpochInfo);
  PutU64(out, info.epoch);
  PutU32(out, info.step);
  out->push_back(info.dynamic);
  out->push_back(info.deformer_kind);
  PutU16(out, 0);  // reserved
  PutU64(out, info.last_step_pages_rewritten);
  EndFrame(out, h);
}

void AppendPinEpoch(Buffer* out, const PinEpochFrame& pin) {
  const size_t h = BeginFrame(out, FrameType::kPinEpoch);
  PutU64(out, pin.epoch);
  EndFrame(out, h);
}

void AppendUnpinEpoch(Buffer* out, const PinEpochFrame& unpin) {
  const size_t h = BeginFrame(out, FrameType::kUnpinEpoch);
  PutU64(out, unpin.epoch);
  EndFrame(out, h);
}

void AppendTraceDumpRequest(Buffer* out) {
  const size_t h = BeginFrame(out, FrameType::kTraceDumpRequest);
  EndFrame(out, h);
}

void AppendTraceDump(Buffer* out, const TraceDumpWire& dump) {
  const size_t h = BeginFrame(out, FrameType::kTraceDump);
  PutU64(out, dump.total_recorded);
  PutU32(out, static_cast<uint32_t>(dump.records.size()));
  PutU32(out, 0);  // reserved
  for (const obs::QueryTraceRecord& r : dump.records) {
    PutU64(out, r.trace_id);
    PutU64(out, r.session_id);
    PutU64(out, r.request_id);
    PutU64(out, r.epoch);
    PutU32(out, r.epoch_step);
    PutU32(out, r.queries);
    PutU32(out, r.batch_queries);
    PutU32(out, r.batch_requests);
    PutI64(out, r.arrival_nanos);
    PutI64(out, r.queue_wait_nanos);
    PutI64(out, r.probe_nanos);
    PutI64(out, r.walk_nanos);
    PutI64(out, r.crawl_nanos);
    PutI64(out, r.merge_nanos);
    PutI64(out, r.serialize_nanos);
    PutI64(out, r.total_nanos);
    PutU64(out, r.page_accesses);
    PutU64(out, r.lease_hits);
    PutU64(out, r.result_vertices);
  }
  EndFrame(out, h);
}

void AppendError(Buffer* out, const ErrorFrame& error) {
  const size_t h = BeginFrame(out, FrameType::kError);
  PutU16(out, static_cast<uint16_t>(error.code));
  PutU16(out, 0);  // reserved
  PutU64(out, error.request_id);
  PutU32(out, static_cast<uint32_t>(error.message.size()));
  out->insert(out->end(), error.message.begin(), error.message.end());
  EndFrame(out, h);
}

Result<FrameHeader> ParseFrameHeader(std::span<const uint8_t> data) {
  if (data.size() < kFrameHeaderBytes) {
    return Malformed("header shorter than 8 bytes");
  }
  FrameHeader header;
  header.payload_bytes = static_cast<uint32_t>(data[0]) |
                         (static_cast<uint32_t>(data[1]) << 8) |
                         (static_cast<uint32_t>(data[2]) << 16) |
                         (static_cast<uint32_t>(data[3]) << 24);
  const uint8_t type = data[4];
  const uint8_t flags = data[5];
  if (data[6] != 0 || data[7] != 0) {
    return Malformed("nonzero reserved header bytes");
  }
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    // ResourceExhausted (not InvalidArgument) so the server can answer
    // with the dedicated FRAME_TOO_LARGE error code.
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(header.payload_bytes) +
        " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte cap");
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kTraceDump)) {
    return Malformed("unknown frame type");
  }
  if (flags != 0) return Malformed("nonzero reserved flags");
  header.type = static_cast<FrameType>(type);
  return header;
}

Status ParseHello(std::span<const uint8_t> payload, HelloFrame* out) {
  Reader r(payload);
  if (!r.U32(&out->magic) || !r.U16(&out->version) || !r.U16(&out->flags) ||
      !r.Done()) {
    return Malformed("HELLO payload must be exactly 8 bytes");
  }
  return Status::OK();
}

Status ParseWelcome(std::span<const uint8_t> payload, WelcomeFrame* out) {
  Reader r(payload);
  uint16_t packed = 0;
  if (!r.U16(&out->version) || !r.U16(&packed) ||
      !r.U64(&out->num_vertices) || !r.U32(&out->page_bytes) ||
      !r.U32(&out->max_batch_queries) || !r.Done()) {
    return Malformed("WELCOME payload size mismatch");
  }
  out->paged = static_cast<uint8_t>(packed & 0xFF);
  out->dynamic = static_cast<uint8_t>(packed >> 8);
  return Status::OK();
}

Status ParseQueryBatch(std::span<const uint8_t> payload,
                       uint64_t* request_id, std::vector<AABB>* boxes,
                       uint64_t* epoch, uint64_t* client_span_id) {
  Reader r(payload);
  uint32_t count = 0;
  uint32_t reserved = 0;
  if (!r.U64(request_id) || !r.U32(&count) || !r.U32(&reserved) ||
      !r.U64(epoch) || !r.U64(client_span_id)) {
    return Malformed("QUERY_BATCH header truncated");
  }
  if (r.remaining() != static_cast<size_t>(count) * kQueryBoxBytes) {
    return Malformed("QUERY_BATCH query count disagrees with payload size");
  }
  boxes->clear();
  boxes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AABB box;
    if (!r.F32(&box.min.x) || !r.F32(&box.min.y) || !r.F32(&box.min.z) ||
        !r.F32(&box.max.x) || !r.F32(&box.max.y) || !r.F32(&box.max.z)) {
      return Malformed("QUERY_BATCH truncated query");
    }
    boxes->push_back(box);
  }
  return Status::OK();
}

Status ParseResult(std::span<const uint8_t> payload, uint64_t* request_id,
                   BatchStatsWire* stats,
                   std::vector<std::vector<VertexId>>* per_query) {
  Reader r(payload);
  uint32_t num_queries = 0;
  uint32_t reserved = 0;
  if (!r.U64(request_id) || !r.U32(&num_queries) || !r.U32(&reserved) ||
      !ReadBatchStats(&r, stats)) {
    return Malformed("RESULT header truncated");
  }
  // Each query needs at least its 4-byte count: bound the allocation by
  // what the payload can actually carry before resizing.
  if (static_cast<size_t>(num_queries) * 4 > r.remaining()) {
    return Malformed("RESULT query count disagrees with payload size");
  }
  per_query->clear();
  per_query->resize(num_queries);
  for (uint32_t q = 0; q < num_queries; ++q) {
    uint32_t count = 0;
    if (!r.U32(&count)) return Malformed("RESULT count truncated");
    if (r.remaining() < static_cast<size_t>(count) * 4) {
      return Malformed("RESULT ids truncated");
    }
    std::vector<VertexId>& ids = (*per_query)[q];
    ids.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      r.U32(&ids[i]);
    }
  }
  if (!r.Done()) return Malformed("RESULT trailing bytes");
  return Status::OK();
}

Status ParseStats(std::span<const uint8_t> payload, StatsWire* out) {
  Reader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Malformed("STATS header truncated");
  // Each sample holds at least a one-byte name: bound the count by the
  // payload before reserving anything for it.
  if (count > r.remaining() / (kStatsSampleFixedBytes + 1)) {
    return Malformed("STATS sample count exceeds the payload");
  }
  out->samples.clear();
  out->samples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StatsSample sample;
    uint8_t name_len = 0;
    uint64_t bits = 0;
    if (!r.U8(&name_len) || !r.Bytes(name_len, &sample.name) ||
        !r.U64(&bits)) {
      return Malformed("STATS truncated sample");
    }
    if (!IsMetricName(sample.name)) {
      return Malformed("STATS sample name is not a metric name");
    }
    sample.value = std::bit_cast<double>(bits);
    if (!std::isfinite(sample.value)) {
      return Malformed("STATS sample value is not finite");
    }
    out->samples.push_back(std::move(sample));
  }
  if (!r.Done()) return Malformed("STATS trailing bytes");
  return Status::OK();
}

Status ParseStep(std::span<const uint8_t> payload, StepFrame* out) {
  Reader r(payload);
  uint32_t reserved = 0;
  if (!r.U32(&out->steps) || !r.U32(&reserved) || !r.Done()) {
    return Malformed("STEP payload must be exactly 8 bytes");
  }
  if (out->steps > kMaxStepsPerFrame) {
    return Malformed("STEP count exceeds the per-frame cap");
  }
  return Status::OK();
}

Status ParseEpochInfo(std::span<const uint8_t> payload,
                      EpochInfoWire* out) {
  Reader r(payload);
  uint16_t packed = 0;
  uint16_t reserved = 0;
  if (!r.U64(&out->epoch) || !r.U32(&out->step) || !r.U16(&packed) ||
      !r.U16(&reserved) || !r.U64(&out->last_step_pages_rewritten) ||
      !r.Done()) {
    return Malformed("EPOCH_INFO payload size mismatch");
  }
  out->dynamic = static_cast<uint8_t>(packed & 0xFF);
  out->deformer_kind = static_cast<uint8_t>(packed >> 8);
  return Status::OK();
}

Status ParsePinEpoch(std::span<const uint8_t> payload,
                     PinEpochFrame* out) {
  Reader r(payload);
  if (!r.U64(&out->epoch) || !r.Done()) {
    return Malformed("PIN/UNPIN_EPOCH payload must be exactly 8 bytes");
  }
  return Status::OK();
}

Status ParseTraceDump(std::span<const uint8_t> payload,
                      TraceDumpWire* out) {
  Reader r(payload);
  uint32_t count = 0;
  uint32_t reserved = 0;
  if (!r.U64(&out->total_recorded) || !r.U32(&count) || !r.U32(&reserved)) {
    return Malformed("TRACE_DUMP header truncated");
  }
  if (reserved != 0) {
    return Malformed("TRACE_DUMP nonzero reserved field");
  }
  if (r.remaining() != static_cast<size_t>(count) * kTraceRecordBytes) {
    return Malformed(
        "TRACE_DUMP record count disagrees with payload size");
  }
  out->records.clear();
  out->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::QueryTraceRecord rec;
    if (!r.U64(&rec.trace_id) || !r.U64(&rec.session_id) ||
        !r.U64(&rec.request_id) || !r.U64(&rec.epoch) ||
        !r.U32(&rec.epoch_step) || !r.U32(&rec.queries) ||
        !r.U32(&rec.batch_queries) || !r.U32(&rec.batch_requests) ||
        !r.I64(&rec.arrival_nanos) || !r.I64(&rec.queue_wait_nanos) ||
        !r.I64(&rec.probe_nanos) || !r.I64(&rec.walk_nanos) ||
        !r.I64(&rec.crawl_nanos) || !r.I64(&rec.merge_nanos) ||
        !r.I64(&rec.serialize_nanos) || !r.I64(&rec.total_nanos) ||
        !r.U64(&rec.page_accesses) || !r.U64(&rec.lease_hits) ||
        !r.U64(&rec.result_vertices)) {
      return Malformed("TRACE_DUMP truncated record");
    }
    out->records.push_back(rec);
  }
  if (!r.Done()) return Malformed("TRACE_DUMP trailing bytes");
  return Status::OK();
}

Status ParseError(std::span<const uint8_t> payload, ErrorFrame* out) {
  Reader r(payload);
  uint16_t code = 0;
  uint16_t reserved = 0;
  uint32_t msg_len = 0;
  if (!r.U16(&code) || !r.U16(&reserved) || !r.U64(&out->request_id) ||
      !r.U32(&msg_len) || msg_len != r.remaining() ||
      !r.Bytes(msg_len, &out->message)) {
    return Malformed("ERROR payload size mismatch");
  }
  if (code < static_cast<uint16_t>(ErrorCode::kBadMagic) ||
      code > static_cast<uint16_t>(ErrorCode::kEpochGone)) {
    return Malformed("ERROR unknown code");
  }
  out->code = static_cast<ErrorCode>(code);
  return Status::OK();
}

}  // namespace octopus::server
