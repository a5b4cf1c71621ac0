// Copyright 2026 The OCTOPUS Reproduction Authors
// Blocking client library for the OCTP query service: connect +
// handshake, send query batches, receive demultiplexed results and
// server stats. One instance per connection, not thread-safe (open one
// client per driving thread — the server coalesces across connections).
#ifndef OCTOPUS_CLIENT_REMOTE_CLIENT_H_
#define OCTOPUS_CLIENT_REMOTE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aabb.h"
#include "common/status.h"
#include "engine/query_batch.h"
#include "obs/trace.h"
#include "server/protocol.h"

namespace octopus::client {

/// Result of one remote batch: per-query result sets in request order
/// plus the executing batch's stats (see `server::BatchStatsWire` for
/// the coalescing caveat). `results.epoch` (== `stats.epoch`) is the
/// mesh epoch the whole batch executed against — epoch-consistent by
/// construction, and bit-comparable to an in-process engine run at the
/// same step of the same deformer trajectory.
struct RemoteBatchResult {
  engine::QueryBatchResult results;
  server::BatchStatsWire stats;
};

struct RemoteClientOptions {
  /// Socket receive/send timeout; 0 disables (block forever).
  int64_t io_timeout_nanos = 30'000'000'000;
};

class RemoteClient {
 public:
  using Options = RemoteClientOptions;

  /// Connects to `host:port` (IPv4 literal or resolvable name) and
  /// performs the OCTP handshake.
  static Result<std::unique_ptr<RemoteClient>> Connect(
      const std::string& host, uint16_t port,
      const Options& options = Options());

  ~RemoteClient();

  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  /// What the server reported in its WELCOME frame.
  const server::WelcomeFrame& server_info() const { return welcome_; }

  /// Executes `boxes` remotely; blocks until the RESULT arrives.
  /// `epoch` 0 (the default) runs against the server's current epoch;
  /// any other value runs against that exact historical epoch — the
  /// repeatable-read path, which requires the epoch to still be in the
  /// server's bounded history (pin it to be sure). An OVERLOADED
  /// rejection surfaces as `ResourceExhausted`, an EPOCH_GONE as
  /// `NotFound` (the connection stays usable in both cases); other
  /// error frames and transport failures surface as their mapped
  /// Status and poison the connection.
  Result<RemoteBatchResult> ExecuteBatch(std::span<const AABB> boxes,
                                         uint64_t epoch = 0);

  /// Pins an epoch (0 = current) against history eviction until
  /// `UnpinEpoch` or disconnect; returns the pinned epoch's identity —
  /// the id to pass to `ExecuteBatch` for repeatable reads across
  /// steps. EPOCH_GONE (`NotFound`) when it was already evicted.
  Result<server::EpochInfoWire> PinEpoch(uint64_t epoch = 0);
  /// Releases one pin taken by this session; answers the server's
  /// current epoch. `NotFound` when this session holds no such pin.
  Result<server::EpochInfoWire> UnpinEpoch(uint64_t epoch);

  /// Enables per-call span recording: every subsequent successful
  /// `ExecuteBatch` assigns a span id, sends it in the QUERY_BATCH (v6,
  /// so the server's slow-query log can quote it), times the call's
  /// send / wait / receive split and keeps an `obs::ClientCallSpan`
  /// carrying the server's echoed trace id — the client half of
  /// `octopus_cli trace dump --merge-client`.
  void set_record_spans(bool on) { record_spans_ = on; }
  bool record_spans() const { return record_spans_; }
  /// Spans recorded so far, in call order.
  const std::vector<obs::ClientCallSpan>& spans() const { return spans_; }

  /// Fetches the server's metric samples (OCTP v7 STATS: every /metrics
  /// counter and gauge, each histogram's `_count` and `_sum`; look one
  /// up with `StatsWire::Find`).
  Result<server::StatsWire> FetchStats();

  /// Fetches the server's flight-recorder ring (oldest record first).
  /// An empty dump is a valid answer — the server may be running with
  /// tracing disabled (`serve --trace-ring 0`).
  Result<server::TraceDumpWire> FetchTraceDump();

  /// Advances the server's simulation `steps` steps (requires a dynamic
  /// server for steps > 0) and returns the resulting epoch. The
  /// control-plane verb behind `octopus_cli step`.
  Result<server::EpochInfoWire> Step(uint32_t steps);

  /// Current epoch + deformer info without advancing anything (legal on
  /// static servers too: epoch {0, 0}, dynamic = 0).
  Result<server::EpochInfoWire> FetchEpochInfo() { return Step(0); }

  void Close();

 private:
  explicit RemoteClient(int fd) : fd_(fd) {}

  Status SendAll(const server::Buffer& data);
  /// Sends one encoded frame and reads the EPOCH_INFO answer (the
  /// shared shape of STEP, PIN_EPOCH and UNPIN_EPOCH).
  Result<server::EpochInfoWire> RoundTripEpochInfo(
      const server::Buffer& request);
  /// Reads exactly one frame (header + payload) into `payload`/`type`.
  /// When `first_byte_nanos` is non-null, it receives the monotonic
  /// instant the first response byte arrived (the wait/receive split).
  Status ReadFrame(server::FrameType* type, server::Buffer* payload,
                   int64_t* first_byte_nanos = nullptr);
  /// Maps an ERROR frame to a Status (and closes unless it is a
  /// request-scoped overload rejection).
  Status StatusFromError(const server::ErrorFrame& error);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  server::WelcomeFrame welcome_;
  bool record_spans_ = false;
  uint64_t next_span_id_ = 1;
  std::vector<obs::ClientCallSpan> spans_;
};

}  // namespace octopus::client

#endif  // OCTOPUS_CLIENT_REMOTE_CLIENT_H_
