// Copyright 2026 The OCTOPUS Reproduction Authors
// Flight recorder: a fixed-size ring of per-request trace records kept
// by the query server. One record per executed request (the unit that
// has an arrival time and a response frame) capturing where its wall
// clock went — queue wait under the coalescing window, the engine's
// per-phase split (probe / walk / crawl / merge), serialization — plus
// the epoch it ran against and its page/lease economy.
//
// Thread model since the multi-threaded front end: the serialization
// thread is the sole `Record` / `ReserveId` caller (which keeps trace
// ids sequential with result delivery), while TRACE_DUMP handlers on
// I/O threads call `Snapshot`/`size` concurrently — the ring is guarded
// by a mutex and `total_recorded` is an atomic. The ring is bounded;
// once full, each new record overwrites the oldest.
//
// Tracing is near zero-cost when disabled: a ring of capacity 0
// (serve --trace-ring 0) makes `enabled()` false and `Record` a single
// predictable branch — this is the knob bench_server prices (see
// check_perf_smoke.py).
#ifndef OCTOPUS_OBS_TRACE_H_
#define OCTOPUS_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace octopus::obs {

/// \brief One executed request's timing breakdown. All nanosecond
/// fields are on the server's monotonic clock; phase nanos are summed
/// over the coalesced batch the request rode in (the engine executes
/// whole batches — see `BatchStatsWire` for the shared-cost caveat).
struct QueryTraceRecord {
  uint64_t trace_id = 0;    ///< monotone 1-based sequence number
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  uint64_t epoch = 0;       ///< epoch the batch executed against
  uint32_t epoch_step = 0;  ///< simulation step of that epoch
  uint32_t queries = 0;     ///< queries in THIS request
  uint32_t batch_queries = 0;   ///< queries in the coalesced batch
  uint32_t batch_requests = 0;  ///< requests coalesced into the batch
  int64_t arrival_nanos = 0;    ///< request frame fully parsed
  int64_t queue_wait_nanos = 0;  ///< arrival -> batch dispatch
  int64_t probe_nanos = 0;       ///< surface-probe phase (batch)
  int64_t walk_nanos = 0;        ///< directed-walk phase (batch)
  int64_t crawl_nanos = 0;       ///< crawl phase (batch)
  int64_t merge_nanos = 0;       ///< batch-end stats/context merge
  int64_t serialize_nanos = 0;   ///< RESULT frame encoding
  int64_t total_nanos = 0;       ///< arrival -> response enqueued
  uint64_t page_accesses = 0;    ///< priced page accesses (batch)
  uint64_t lease_hits = 0;       ///< free re-reads via held leases
  uint64_t result_vertices = 0;  ///< vertices returned to THIS request

  friend bool operator==(const QueryTraceRecord&,
                         const QueryTraceRecord&) = default;
};

/// \brief Bounded single-writer ring of `QueryTraceRecord`s.
class FlightRecorder {
 public:
  /// `capacity` slots; 0 disables recording entirely.
  explicit FlightRecorder(size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ != 0; }

  /// Appends a record (overwriting the oldest once full), assigning and
  /// returning its trace id. Returns 0 without touching anything when
  /// tracing is disabled.
  uint64_t Record(const QueryTraceRecord& record) {
    if (capacity_ == 0) return 0;
    return RecordSlow(record);
  }

  /// The trace id the NEXT `Record` call will assign (0 when tracing is
  /// disabled). Lets a caller put the id on the wire before the record
  /// is complete — the server serializes a RESULT (which must carry the
  /// id) before it knows the serialization cost the record captures.
  /// Valid only until someone else records, which never happens between
  /// a Reserve and its Record: the serialization thread is the only
  /// caller of either.
  uint64_t ReserveId() const {
    return capacity_ == 0 ? 0
                          : total_.load(std::memory_order_relaxed) + 1;
  }

  size_t capacity() const { return capacity_; }
  /// Lifetime records written (>= size of the ring once wrapped).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }
  size_t size() const;

  /// Copies the ring into `*out`, oldest record first.
  void Snapshot(std::vector<QueryTraceRecord>* out) const;

 private:
  uint64_t RecordSlow(const QueryTraceRecord& record);

  size_t capacity_;  // const after construction
  mutable common::Mutex mu_;
  /// Grown lazily up to capacity_.
  std::vector<QueryTraceRecord> ring_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;  // overwrite cursor once full
  std::atomic<uint64_t> total_{0};
};

/// Renders records as Chrome trace-event JSON (one "request" span per
/// record on its session's track, with queue/probe/walk/crawl/merge/
/// serialize child spans laid end to end). Load via chrome://tracing,
/// Perfetto, or speedscope.
std::string ChromeTraceJson(const std::vector<QueryTraceRecord>& records);

/// \brief One client-side remote call, as timed by `RemoteClient`: the
/// wall the caller saw, split into send (encode + write), wait (write
/// complete -> first response byte) and receive (first byte -> frame
/// complete). `server_trace_id` is the id echoed in the RESULT's
/// batch-stats block (v6), 0 when the server ran untraced — the join
/// key against a later TRACE_DUMP.
struct ClientCallSpan {
  uint64_t span_id = 0;    ///< monotone 1-based, per client connection
  uint64_t request_id = 0;
  uint64_t server_trace_id = 0;
  int64_t start_unix_nanos = 0;  ///< wall clock at call entry
  int64_t send_nanos = 0;
  int64_t wait_nanos = 0;
  int64_t recv_nanos = 0;
  uint64_t queries = 0;
  uint64_t epoch = 0;  ///< epoch requested (0 = current)

  friend bool operator==(const ClientCallSpan&,
                         const ClientCallSpan&) = default;
};

/// Renders one span as a single-line JSON object (no trailing newline)
/// — the `--span-log` JSONL line format.
std::string ClientCallSpanJson(const ClientCallSpan& span);

/// Parses a `ClientCallSpanJson` line back (flat object, numeric
/// fields only; unknown keys ignored). Returns false on anything that
/// does not carry a span_id — blank lines and comments included — so a
/// reader can skip junk without dying.
bool ParseClientCallSpanJson(const std::string& line, ClientCallSpan* out);

/// Renders one merged Chrome trace from both sides of the wire: client
/// call spans (pid 1, with send/wait/receive children) on the client's
/// wall clock, and each server record whose `trace_id` matches a span's
/// `server_trace_id` (pid 2, with the usual phase children) placed
/// inside that span's wait window, centered under a symmetric-network
/// assumption — the gap on each side of the server span is the one-way
/// wire time. Server records matching no client span are omitted (they
/// belong to other clients); timestamps are rebased so the first client
/// span starts at 0.
std::string MergedChromeTraceJson(
    const std::vector<QueryTraceRecord>& server_records,
    const std::vector<ClientCallSpan>& client_spans);

}  // namespace octopus::obs

#endif  // OCTOPUS_OBS_TRACE_H_
