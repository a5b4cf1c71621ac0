// Copyright 2026 The OCTOPUS Reproduction Authors
// The OCTP wire protocol: length-prefixed binary frames exchanged between
// the query server and its clients. Everything on the wire is
// little-endian with explicit field widths (see docs/PROTOCOL.md for the
// normative layout); encoding and decoding are symmetric free functions
// over byte buffers, so the server, the client library, tests and fuzzers
// all share one implementation and malformed input surfaces as a
// `Status`, never as UB.
#ifndef OCTOPUS_SERVER_PROTOCOL_H_
#define OCTOPUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/aabb.h"
#include "common/status.h"
#include "engine/mesh_epoch.h"
#include "engine/query_batch.h"
#include "obs/trace.h"
#include "octopus/phase_stats.h"

namespace octopus::server {

/// "OCTP" — first field of the HELLO frame; anything else on a fresh
/// connection is rejected as a non-protocol peer.
inline constexpr uint32_t kProtocolMagic = 0x4F435450;

/// Bumped on any incompatible frame-layout change; the server rejects
/// mismatched clients in the handshake. docs/PROTOCOL.md keeps the
/// version history (v7: STATS carries name/value samples).
inline constexpr uint16_t kProtocolVersion = 7;

/// Every frame starts with this fixed-size header.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Hard cap on a single frame's payload. Frames announcing more are
/// rejected as malformed before any allocation happens (a 4-byte length
/// prefix must never let a peer request a 4 GB buffer).
inline constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  kHello = 1,         ///< client -> server: magic, version
  kWelcome = 2,       ///< server -> client: accepted handshake + backend info
  kQueryBatch = 3,    ///< client -> server: request id + AABB queries
  kResult = 4,        ///< server -> client: per-query results + batch stats
  kStatsRequest = 5,  ///< client -> server: empty payload
  kStats = 6,         ///< server -> client: server metrics snapshot
  kError = 7,         ///< server -> client: typed error, optional request id
  kStep = 8,          ///< client -> server: advance the simulation N steps
  kEpochInfo = 9,     ///< server -> client: current epoch + deformer info
  kPinEpoch = 10,     ///< client -> server: exempt an epoch from eviction
  kUnpinEpoch = 11,   ///< client -> server: release one pin
  kTraceDumpRequest = 12,  ///< client -> server: empty payload (v5)
  kTraceDump = 13,    ///< server -> client: flight-recorder ring (v5)
};

/// Typed error codes carried by kError frames.
enum class ErrorCode : uint16_t {
  kBadMagic = 1,         ///< first frame's magic was not "OCTP"
  kVersionMismatch = 2,  ///< client protocol version unsupported
  kMalformedFrame = 3,   ///< frame failed to parse (connection is closed)
  kFrameTooLarge = 4,    ///< announced payload above kMaxFramePayloadBytes
  kUnexpectedFrame = 5,  ///< frame type invalid in this session state
  kOverloaded = 6,       ///< admission control rejected the request
  kShuttingDown = 7,     ///< server is draining; request not accepted
  kInternal = 8,         ///< server-side failure executing the request
  kTimeout = 9,          ///< session idle/handshake deadline expired
  /// The requested epoch was evicted from the bounded history (or never
  /// existed). Request-scoped: the connection stays usable — re-query
  /// the current epoch, or pin earlier next time.
  kEpochGone = 10,
};

const char* ErrorCodeName(ErrorCode code);

/// Growable byte buffer frames are encoded into / decoded from.
using Buffer = std::vector<uint8_t>;

struct FrameHeader {
  uint32_t payload_bytes = 0;
  FrameType type = FrameType::kHello;
};

struct HelloFrame {
  uint32_t magic = kProtocolMagic;
  uint16_t version = kProtocolVersion;
  uint16_t flags = 0;  ///< reserved, must be zero
};

/// Server self-description sent after a successful handshake.
struct WelcomeFrame {
  uint16_t version = kProtocolVersion;
  uint8_t paged = 0;    ///< 1 = out-of-core OCT2 backend, 0 = in-memory
  uint8_t dynamic = 0;  ///< 1 = a deformer is bound; STEP advances it
  uint64_t num_vertices = 0;
  uint32_t page_bytes = 0;  ///< 0 for the in-memory backend
  /// Coalescing cap: batches above this execute alone, so clients that
  /// care about latency should split requests at this size.
  uint32_t max_batch_queries = 0;
};

/// Per-batch execution statistics attached to every RESULT frame: the
/// engine's `PhaseStats` of the coalesced batch that served the request,
/// plus how big that batch was. With a single active client the batch
/// contains exactly the request's queries and the counters equal the
/// in-process engine's; under coalescing they are batch-scoped.
struct BatchStatsWire {
  int64_t probe_nanos = 0;
  int64_t walk_nanos = 0;
  int64_t crawl_nanos = 0;
  /// Batch-end fold of per-shard stats into the aggregate (v5). Tiny
  /// next to the probe/walk/crawl phases, but it is the one cost the
  /// sharded execution model adds over a sequential sweep.
  int64_t merge_nanos = 0;
  uint64_t queries = 0;
  uint64_t probed_vertices = 0;
  uint64_t walk_invocations = 0;
  uint64_t walk_vertices = 0;
  uint64_t crawl_edges = 0;
  uint64_t result_vertices = 0;
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;
  uint64_t page_evictions = 0;
  /// Lease counters (v4): under the leased-page discipline
  /// `page_hits + page_misses` prices a page once per batch (at lease
  /// acquisition), `lease_hits` counts the free re-reads through held
  /// leases, and `pages_distinct` is the exact distinct-page count the
  /// priced accesses approximate.
  uint64_t lease_hits = 0;
  uint64_t pages_leased = 0;
  uint64_t pages_distinct = 0;
  uint32_t batch_queries = 0;   ///< queries in the coalesced batch
  uint32_t batch_requests = 0;  ///< client requests coalesced into it
  /// v6: the flight-recorder trace id the server assigned THIS request
  /// (not the batch — coalesced requests get distinct records). 0 when
  /// server-side tracing is disabled; clients use it to join their own
  /// per-call spans with a later TRACE_DUMP.
  uint64_t trace_id = 0;
  /// Mesh epoch the batch executed against (epoch-stamped RESULTs): the
  /// whole coalesced batch ran on this one pinned state, so every
  /// result in it is epoch-consistent. `epoch.step` doubles as the
  /// index staleness in simulation steps (the index is built at step 0
  /// and never maintained). {0, 0} on a static backend.
  engine::EpochInfo epoch;

  static BatchStatsWire FromPhaseStats(const PhaseStats& stats,
                                       uint32_t batch_queries,
                                       uint32_t batch_requests,
                                       engine::EpochInfo epoch);
  PhaseStats ToPhaseStats() const;
};

/// Cap on STEP's `steps` field: steps apply inline on the server's
/// event loop, so one frame must not be able to monopolize it with an
/// unbounded amount of O(V) work. Larger values are rejected as
/// malformed; advance further with multiple frames.
inline constexpr uint32_t kMaxStepsPerFrame = 1024;

/// STEP payload: advance the bound deformer `steps` times (0 = just
/// report the current epoch — legal on static servers too).
struct StepFrame {
  uint32_t steps = 0;
};

/// PIN_EPOCH / UNPIN_EPOCH payload: the epoch to (un)pin. For PIN, 0 =
/// pin whatever is current (the answer reports the real id). Pins are
/// per-session counters: an epoch stays exempt from history eviction
/// until every pin is released or the pinning session dies. PIN is
/// answered with EPOCH_INFO carrying the pinned epoch's identity;
/// UNPIN with the *current* epoch (the released one may be evicted by
/// the release itself). Both answer ERROR(EPOCH_GONE) when the named
/// epoch is not in the ring / not pinned by this session.
struct PinEpochFrame {
  uint64_t epoch = 0;
};

/// EPOCH_INFO payload: the answer to every STEP and PIN/UNPIN_EPOCH.
struct EpochInfoWire {
  uint64_t epoch = 0;
  uint32_t step = 0;
  uint8_t dynamic = 0;        ///< 1 = a deformer is bound
  uint8_t deformer_kind = 0;  ///< DeformerKind wire value
  /// Position pages rewritten by the last applied step (paged backends;
  /// 0 in-memory or before the first step) — the OCT2 delta-page cost.
  uint64_t last_step_pages_rewritten = 0;
};

/// One STATS sample (v7): a /metrics sample name and its value. The
/// name matches `[a-zA-Z_:][a-zA-Z0-9_:]*` and is 1..255 bytes; the
/// value is finite.
struct StatsSample {
  std::string name;
  double value = 0.0;

  bool operator==(const StatsSample&) const = default;
};

/// STATS payload (v7): the server's metric-table samples, in table
/// order — each counter and gauge once, each histogram as its `_count`
/// and `_sum`, with the values /metrics renders.
struct StatsWire {
  std::vector<StatsSample> samples;

  /// The value of the sample named `name`; nullopt when absent.
  std::optional<double> Find(std::string_view name) const;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  /// Request the error refers to; 0 for connection-level errors.
  uint64_t request_id = 0;
  std::string message;
};

/// TRACE_DUMP payload (v5): the server's flight-recorder ring, oldest
/// record first. `total_recorded` is the lifetime record count, so a
/// client can report "last N of M". Empty (count 0) when tracing is
/// disabled on the server — a valid answer, not an error.
struct TraceDumpWire {
  uint64_t total_recorded = 0;
  std::vector<obs::QueryTraceRecord> records;
};

/// Fixed wire size of one `obs::QueryTraceRecord`.
inline constexpr size_t kTraceRecordBytes = 136;

// --- Wire-layout lint -------------------------------------------------
//
// Named byte sizes of every fixed-layout OCTP block. Each is derived
// from the widths of the struct fields it carries, so adding or
// resizing a field without updating the constant (and docs/PROTOCOL.md
// — cross-checked by tools/check_wire_spec.py) is a compile error
// here, not a silent wire break discovered by a peer. The encoders are
// field-by-field little-endian (never a struct memcpy), so these
// constants — not sizeof(struct) — ARE the wire layout.

/// HELLO payload: magic u32, version u16, flags u16.
inline constexpr size_t kHelloPayloadBytes = 8;
static_assert(kHelloPayloadBytes ==
              sizeof(HelloFrame::magic) + sizeof(HelloFrame::version) +
                  sizeof(HelloFrame::flags));

/// WELCOME payload: version u16, paged u8, dynamic u8, num_vertices
/// u64, page_bytes u32, max_batch_queries u32.
inline constexpr size_t kWelcomePayloadBytes = 20;
static_assert(kWelcomePayloadBytes ==
              sizeof(WelcomeFrame::version) + sizeof(WelcomeFrame::paged) +
                  sizeof(WelcomeFrame::dynamic) +
                  sizeof(WelcomeFrame::num_vertices) +
                  sizeof(WelcomeFrame::page_bytes) +
                  sizeof(WelcomeFrame::max_batch_queries));

/// QUERY_BATCH fixed header before the boxes (v6): request_id u64,
/// count u32, reserved u32, epoch u64, client_span_id u64.
inline constexpr size_t kQueryBatchFixedBytes = 32;
static_assert(kQueryBatchFixedBytes ==
              sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t) +
                  sizeof(uint64_t) + sizeof(uint64_t));

/// One query box: 6 f32 (min.xyz, max.xyz).
inline constexpr size_t kQueryBoxBytes = 24;
static_assert(kQueryBoxBytes == 6 * sizeof(float));

/// RESULT fixed bytes before the batch-stats block: request_id u64,
/// count u32, reserved u32.
inline constexpr size_t kResultFixedBytes = 16;
static_assert(kResultFixedBytes ==
              sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t));

/// The batch-stats block every RESULT carries (v6: 160 bytes). Field
/// order on the wire: the 4 phase i64s, the 12 u64 counters, the two
/// batch u32s, epoch u64 + step u32 + reserved u32, trace_id u64.
inline constexpr size_t kBatchStatsBytes = 160;
static_assert(kBatchStatsBytes ==
              sizeof(BatchStatsWire::probe_nanos) +
                  sizeof(BatchStatsWire::walk_nanos) +
                  sizeof(BatchStatsWire::crawl_nanos) +
                  sizeof(BatchStatsWire::merge_nanos) +
                  sizeof(BatchStatsWire::queries) +
                  sizeof(BatchStatsWire::probed_vertices) +
                  sizeof(BatchStatsWire::walk_invocations) +
                  sizeof(BatchStatsWire::walk_vertices) +
                  sizeof(BatchStatsWire::crawl_edges) +
                  sizeof(BatchStatsWire::result_vertices) +
                  sizeof(BatchStatsWire::page_hits) +
                  sizeof(BatchStatsWire::page_misses) +
                  sizeof(BatchStatsWire::page_evictions) +
                  sizeof(BatchStatsWire::lease_hits) +
                  sizeof(BatchStatsWire::pages_leased) +
                  sizeof(BatchStatsWire::pages_distinct) +
                  sizeof(BatchStatsWire::batch_queries) +
                  sizeof(BatchStatsWire::batch_requests) +
                  sizeof(engine::EpochInfo::epoch) +
                  sizeof(engine::EpochInfo::step) +
                  sizeof(uint32_t) /* reserved */ +
                  sizeof(BatchStatsWire::trace_id));

/// STATS fixed bytes before the samples (v7): count u32.
inline constexpr size_t kStatsFixedBytes = 4;
static_assert(kStatsFixedBytes == sizeof(uint32_t));

/// One STATS sample's fixed bytes around its name (v7): name_len u8
/// before the name, value f64 after it.
inline constexpr size_t kStatsSampleFixedBytes = 9;
static_assert(kStatsSampleFixedBytes ==
              sizeof(uint8_t) + sizeof(StatsSample::value));

/// STEP payload: steps u32, reserved u32.
inline constexpr size_t kStepPayloadBytes = 8;
static_assert(kStepPayloadBytes ==
              sizeof(StepFrame::steps) + sizeof(uint32_t));

/// EPOCH_INFO payload: epoch u64, step u32, dynamic u8, deformer u8,
/// reserved u16, last_step_pages_rewritten u64.
inline constexpr size_t kEpochInfoPayloadBytes = 24;
static_assert(kEpochInfoPayloadBytes ==
              sizeof(EpochInfoWire::epoch) + sizeof(EpochInfoWire::step) +
                  sizeof(EpochInfoWire::dynamic) +
                  sizeof(EpochInfoWire::deformer_kind) +
                  sizeof(uint16_t) /* reserved */ +
                  sizeof(EpochInfoWire::last_step_pages_rewritten));

/// PIN_EPOCH / UNPIN_EPOCH payload: epoch u64.
inline constexpr size_t kPinEpochPayloadBytes = 8;
static_assert(kPinEpochPayloadBytes == sizeof(PinEpochFrame::epoch));

/// ERROR fixed bytes before the message: code u16, reserved u16,
/// request_id u64, message length u32.
inline constexpr size_t kErrorFixedBytes = 16;
static_assert(kErrorFixedBytes ==
              sizeof(uint16_t) + sizeof(uint16_t) + sizeof(uint64_t) +
                  sizeof(uint32_t));

/// TRACE_DUMP fixed bytes before the records: total_recorded u64,
/// count u32, reserved u32.
inline constexpr size_t kTraceDumpFixedBytes = 16;
static_assert(kTraceDumpFixedBytes ==
              sizeof(TraceDumpWire::total_recorded) + sizeof(uint32_t) +
                  sizeof(uint32_t));

// One trace record: 4 u64 ids, 4 u32 batch shape fields, 8 i64 phase
// nanos, 3 u64 counters — 136 bytes, the constant TRACE_DUMP sizing
// and parsing already rely on.
static_assert(kTraceRecordBytes ==
              sizeof(obs::QueryTraceRecord::trace_id) +
                  sizeof(obs::QueryTraceRecord::session_id) +
                  sizeof(obs::QueryTraceRecord::request_id) +
                  sizeof(obs::QueryTraceRecord::epoch) +
                  sizeof(obs::QueryTraceRecord::epoch_step) +
                  sizeof(obs::QueryTraceRecord::queries) +
                  sizeof(obs::QueryTraceRecord::batch_queries) +
                  sizeof(obs::QueryTraceRecord::batch_requests) +
                  sizeof(obs::QueryTraceRecord::arrival_nanos) +
                  sizeof(obs::QueryTraceRecord::queue_wait_nanos) +
                  sizeof(obs::QueryTraceRecord::probe_nanos) +
                  sizeof(obs::QueryTraceRecord::walk_nanos) +
                  sizeof(obs::QueryTraceRecord::crawl_nanos) +
                  sizeof(obs::QueryTraceRecord::merge_nanos) +
                  sizeof(obs::QueryTraceRecord::serialize_nanos) +
                  sizeof(obs::QueryTraceRecord::total_nanos) +
                  sizeof(obs::QueryTraceRecord::page_accesses) +
                  sizeof(obs::QueryTraceRecord::lease_hits) +
                  sizeof(obs::QueryTraceRecord::result_vertices));

// --- Encoding: appends one complete frame (header + payload) ---

void AppendHello(Buffer* out, const HelloFrame& hello);
void AppendWelcome(Buffer* out, const WelcomeFrame& welcome);
/// `epoch` selects the mesh state to execute against: 0 = the server's
/// current epoch (the default every latency-path client wants), any
/// other value = that exact historical epoch (EPOCH_GONE if evicted).
/// `client_span_id` (v6) is the caller's span identity for this
/// request, or 0 for none; the server carries it into its slow-query
/// log so client and server logs correlate line-for-line.
void AppendQueryBatch(Buffer* out, uint64_t request_id,
                      std::span<const AABB> boxes, uint64_t epoch = 0,
                      uint64_t client_span_id = 0);
/// `per_query` are the request's result slots, in request query order.
void AppendResult(Buffer* out, uint64_t request_id,
                  const BatchStatsWire& stats,
                  std::span<const std::vector<VertexId>> per_query);
/// Zero-copy variant of `AppendResult`: encodes only the frame's fixed
/// bytes — header, request id, query count, reserved word, batch-stats
/// block, then the n per-query count words contiguously — and patches
/// the header's payload length to the FULL `ResultPayloadBytes`. The
/// writer owes the wire query i's vertex ids immediately after count
/// word i (gathered via iovec; see server/io_pipeline.h), which is what
/// lets RESULT vectors go out without ever being memcpy'd into a frame
/// buffer.
void AppendResultMeta(Buffer* out, uint64_t request_id,
                      const BatchStatsWire& stats,
                      std::span<const std::vector<VertexId>> per_query);
/// Bytes of a RESULT frame from its header through the batch-stats
/// block — the offset of the first per-query count word in an
/// `AppendResultMeta` buffer.
inline constexpr size_t kResultMetaBytesBeforeCounts =
    kFrameHeaderBytes + kResultFixedBytes + kBatchStatsBytes;
void AppendStatsRequest(Buffer* out);
/// Every sample name must be 1..255 bytes (the u8 length prefix).
void AppendStats(Buffer* out, const StatsWire& stats);
void AppendError(Buffer* out, const ErrorFrame& error);
void AppendStep(Buffer* out, const StepFrame& step);
void AppendEpochInfo(Buffer* out, const EpochInfoWire& info);
void AppendPinEpoch(Buffer* out, const PinEpochFrame& pin);
void AppendUnpinEpoch(Buffer* out, const PinEpochFrame& unpin);
void AppendTraceDumpRequest(Buffer* out);
void AppendTraceDump(Buffer* out, const TraceDumpWire& dump);

// --- Decoding ---

/// Parses the fixed header from the first `kFrameHeaderBytes` of `data`
/// (which must hold at least that many bytes). Rejects unknown frame
/// types (InvalidArgument) and payloads above `kMaxFramePayloadBytes`
/// (ResourceExhausted, so callers can answer FRAME_TOO_LARGE).
Result<FrameHeader> ParseFrameHeader(std::span<const uint8_t> data);

/// Exact RESULT payload size for a request of these result sets — lets
/// the server check against `kMaxFramePayloadBytes` before encoding.
size_t ResultPayloadBytes(
    std::span<const std::vector<VertexId>> per_query);

/// Each parser consumes exactly one frame's payload (not the header) and
/// fails with InvalidArgument on any size/content mismatch.
Status ParseHello(std::span<const uint8_t> payload, HelloFrame* out);
Status ParseWelcome(std::span<const uint8_t> payload, WelcomeFrame* out);
Status ParseQueryBatch(std::span<const uint8_t> payload,
                       uint64_t* request_id, std::vector<AABB>* boxes,
                       uint64_t* epoch, uint64_t* client_span_id);
Status ParseResult(std::span<const uint8_t> payload, uint64_t* request_id,
                   BatchStatsWire* stats,
                   std::vector<std::vector<VertexId>>* per_query);
/// Validates against a hostile peer: the count against the payload
/// size, every name length and character, finite values, no trailing
/// bytes.
Status ParseStats(std::span<const uint8_t> payload, StatsWire* out);
Status ParseError(std::span<const uint8_t> payload, ErrorFrame* out);
Status ParseStep(std::span<const uint8_t> payload, StepFrame* out);
Status ParseEpochInfo(std::span<const uint8_t> payload, EpochInfoWire* out);
/// Parses either PIN_EPOCH or UNPIN_EPOCH (identical payloads; the
/// frame type in the header distinguishes them).
Status ParsePinEpoch(std::span<const uint8_t> payload, PinEpochFrame* out);
Status ParseTraceDump(std::span<const uint8_t> payload, TraceDumpWire* out);

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_PROTOCOL_H_
