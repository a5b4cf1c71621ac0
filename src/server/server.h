// Copyright 2026 The OCTOPUS Reproduction Authors
// The network query service: a multi-threaded, epoll-based TCP server
// speaking the OCTP protocol. The front end is a four-stage pipeline:
//
//   main thread      accept + wake pipe + introspection HTTP; assigns
//                    each new connection to an I/O thread (sharded by
//                    fd) and orchestrates the drain sequence.
//   N I/O threads    one epoll each; per-connection framing, inline
//                    control verbs (HELLO/STATS/STEP/PIN/TRACE_DUMP),
//                    query admission into the scheduler, idle
//                    deadlines, and gathering `sendmsg` flushes of
//                    pre-framed output. Connections never migrate, so
//                    all per-session state stays thread-local.
//   scheduler thread coalesces queries across connections in one
//                    `BatchScheduler` queue — per epoch, current and
//                    historical alike — and runs engine batches;
//                    query-execution parallelism lives inside the
//                    backend's `QueryEngine` thread pool.
//   serializer thread encodes RESULT/ERROR frames off the I/O threads
//                    (zero-copy: result vectors ride the frame as
//                    iovec segments, see server/io_pipeline.h) and
//                    hands each I/O thread finished buffers.
//
// `io_threads = 1` reproduces the previous single-loop server's
// observable behavior exactly — same admission, coalescing, drain,
// journal and metrics semantics — just with the stages on their own
// threads. See docs/ARCHITECTURE.md for the full thread model and
// docs/OBSERVABILITY.md for which thread emits which metric.
//
// Lifecycle: `Start` binds and listens (port 0 = ephemeral, then
// `port()` reports the actual one), `Run` spawns the pipeline threads
// and blocks until `Stop`. `Stop` — safe from any thread or signal
// handler — triggers a graceful shutdown: stop accepting, execute
// every pending batch, flush write buffers (bounded by
// `drain_timeout_nanos`), close.
#ifndef OCTOPUS_SERVER_SERVER_H_
#define OCTOPUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_journal.h"
#include "obs/http_endpoint.h"
#include "obs/trace.h"
#include "server/batch_scheduler.h"
#include "server/io_pipeline.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/versioned_backend.h"

namespace octopus::server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = pick an ephemeral port
  int backlog = 64;
  size_t max_connections = 256;
  /// I/O threads serving connections (sharded by fd, never migrating).
  /// 1 reproduces the previous single-loop server; values < 1 are
  /// treated as 1. The CLI defaults `serve --io-threads` to
  /// min(4, hardware cores).
  int io_threads = 1;
  SchedulerOptions scheduler;
  /// Graceful-shutdown bound on flushing buffered responses.
  int64_t drain_timeout_nanos = 2'000'000'000;
  /// Backpressure watermark: a session whose unsent output exceeds this
  /// is not read from (no new requests admitted) until it drains, so a
  /// client that pipelines without reading cannot grow server memory
  /// unboundedly.
  size_t max_session_out_bytes = 64u << 20;
  /// Idle/handshake timeout: a session that has not delivered a single
  /// byte for this long — including one that never sent its HELLO — is
  /// answered with ERROR(TIMEOUT) and closed, so silent connections
  /// cannot pin `max_connections` slots forever. Sessions with a
  /// request in flight through the pipeline are exempt (they are
  /// waiting on us, not the reverse). 0 disables.
  int64_t idle_timeout_nanos = 300'000'000'000;  // 5 min
  /// Introspection HTTP port on `bind_address` (/metrics, /healthz,
  /// /readyz, /epochs, /journal): -1 disables the endpoint, 0 binds an
  /// ephemeral port (read it back via `metrics_port()`). Served by the
  /// main thread; /metrics and OCTP STATS render the same metric
  /// table.
  int metrics_port = -1;
  /// Lifecycle event journal (non-owning; may be null). The server
  /// emits session/overload/drain events into it, forwards it to the
  /// backend for step/epoch events at construction, serves it at
  /// /journal and counts it in /metrics. The caller keeps it alive for
  /// the server's lifetime.
  obs::EventJournal* journal = nullptr;
  /// /readyz flips to 503 when the newest epoch publication is older
  /// than this (a stepper that stopped stepping); 0 disables the lag
  /// check. Only meaningful on dynamic backends.
  int64_t ready_max_publish_lag_nanos = 0;
  /// Flight-recorder ring capacity in records; 0 disables tracing
  /// entirely (one predictable branch per request — see obs/trace.h).
  size_t trace_ring_slots = 1024;
  /// Requests whose arrival -> response-enqueue wall clock reaches this
  /// are counted and logged as structured slow-query lines on stderr.
  /// 0 disables.
  int64_t slow_query_nanos = 0;
};

class QueryServer {
 public:
  QueryServer(std::unique_ptr<VersionedBackend> backend,
              ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Creates the listener and the wake pipe. After OK, `port()` is the
  /// bound port.
  Status Start();

  uint16_t port() const { return port_; }

  /// Spawns the pipeline threads and blocks the calling thread in the
  /// accept loop until `Stop`. Returns non-OK only on unrecoverable
  /// errors (poll/epoll setup or failure); the pipeline is torn down
  /// either way.
  Status Run();

  /// Requests a graceful shutdown; callable from any thread and from
  /// signal handlers (one atomic store + one pipe write).
  void Stop();

  /// Bound /metrics port; 0 while the endpoint is disabled.
  uint16_t metrics_port() const { return metrics_http_.port(); }

  /// A copy of the counters with the per-I/O-thread stall shards
  /// merged into `loop_stall` (individually consistent at any time,
  /// mutually consistent once `Run` has returned).
  ServerMetrics MetricsSnapshot() const;
  /// The flight-recorder ring (internally synchronized).
  const obs::FlightRecorder& recorder() const { return recorder_; }
  /// Renders the Prometheus exposition /metrics serves: the metric
  /// table (server/metrics.h) over one `ReadMetricsSource`, the same
  /// loop that fills a STATS reply.
  std::string RenderMetricsText() const;
  /// Renders the JSON /epochs serves (retention-ring view; a static
  /// backend reports "dynamic": false with no entries) — public for
  /// the same reason.
  std::string RenderEpochsJson() const;
  /// Renders the JSON /journal serves ({"total","capacity","events"}),
  /// empty-events when no journal is attached.
  std::string RenderJournalJson() const;
  /// The /readyz answer: 200 + JSON when ready, 503 + JSON when the
  /// epoch-publication lag is over the bound or the spill sidecar has
  /// failing epochs.
  obs::HttpTextEndpoint::Response ReadyzResponse() const;
  /// The backend. `AdvanceStep`, `CurrentEpoch` and the pin verbs on
  /// it are safe from any thread (see VersionedBackend's thread
  /// model); `Execute`/`ExecuteAt` belong to the scheduler thread.
  VersionedBackend* backend() { return backend_.get(); }

 private:
  struct Session;
  struct IoThread;
  /// One unit of serialization work.
  struct SerTask {
    enum class Kind : uint8_t { kResult, kDrain };
    Kind kind = Kind::kResult;
    CompletedRequest done;  // kResult
  };

  int64_t NowNanos() const;
  size_t ResolvedIoThreads() const;
  Status Listen();
  /// Nudges the main poll loop (e.g. so it re-arms accepting after an
  /// I/O thread closed a session at the connection cap).
  void WakeMain();
  void AcceptNew();

  // --- I/O threads ---
  void IoLoop(size_t index);
  void ProcessInbox(IoThread& io, bool* draining);
  void ReadSession(IoThread& io, Session* session);
  void HandleFrame(Session* session, FrameType type,
                   std::span<const uint8_t> payload);
  void SendError(Session* session, ErrorCode code, uint64_t request_id,
                 const std::string& message, bool close_connection);
  /// Encodes an EPOCH_INFO answer for `epoch` with the backend's
  /// dynamic/deformer metadata (the reply to STEP, PIN and UNPIN).
  void AppendCurrentEpochInfo(Session* session, engine::EpochInfo epoch);
  /// Closes sessions silent past the idle deadline (typed TIMEOUT
  /// error); returns nanos until the next session times out (-1: none).
  int64_t EnforceIdleDeadlines(IoThread& io, int64_t now_nanos);
  void FlushSession(IoThread& io, Session* session);
  void UpdateInterest(IoThread& io, Session* session);
  void CloseSession(IoThread& io, uint64_t session_id);
  void ProcessClosures(IoThread& io);
  /// The I/O thread's share of the drain: typed goodbye, bounded
  /// flush, close of condemned/half-closed sessions. Healthy sessions
  /// stay open for the main thread to close after kDrainEnded.
  void DrainIoThread(IoThread& io);

  // --- scheduler / serializer threads ---
  void SchedulerLoop();
  void SerializerLoop();
  /// Serializer: encodes one completed request (RESULT, or a
  /// request-scoped error: EPOCH_GONE, or past the frame cap), updates
  /// latency/trace accounting, dispatches to the owning I/O thread.
  void DeliverCompleted(CompletedRequest done);
  void DispatchOutbound(uint64_t session_id, OutFrame frame,
                        bool completes_request);
  void EnqueueSerTask(SerTask task) EXCLUDES(ser_mu_);

  void DrainAndClose();
  /// Reads every metric source once (server_http.cc): what one scrape
  /// or STATS reply renders.
  MetricsSource ReadMetricsSource() const;
  /// Path-routed introspection handler behind `metrics_http_`.
  obs::HttpTextEndpoint::Response RouteHttp(const std::string& path) const;
  /// Emits into the attached journal (no-op when none is attached).
  void Journal(obs::EventKind kind, uint64_t epoch = 0,
               uint64_t session = 0, uint64_t a = 0, uint64_t b = 0) {
    if (options_.journal != nullptr) {
      options_.journal->Emit(kind, epoch, session, a, b);
    }
  }

  std::unique_ptr<VersionedBackend> backend_;
  ServerOptions options_;
  ServerMetrics metrics_;
  BatchScheduler scheduler_ GUARDED_BY(sched_mu_);
  obs::FlightRecorder recorder_;
  obs::HttpTextEndpoint metrics_http_;

  int listen_fd_ = -1;
  int wake_fd_read_ = -1;
  int wake_fd_write_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};

  /// Accept is paused until this instant after an accept() failure
  /// (e.g. EMFILE) so the loop does not busy-spin on a hot listener.
  /// Main-thread state, like `next_session_id_`.
  int64_t accept_retry_at_nanos_ = 0;
  uint64_t next_session_id_ = 1;

  /// The I/O threads; built once in `Run`, kept (joined) afterwards so
  /// post-run snapshots can still merge the stall shards.
  std::vector<std::unique_ptr<IoThread>> io_;
  /// session id -> I/O thread index; written by the main thread at
  /// accept, erased by the owning I/O thread at close, read by the
  /// serializer to route outbound frames.
  mutable common::Mutex owner_mu_;
  std::unordered_map<uint64_t, uint32_t> owner_ GUARDED_BY(owner_mu_);
  std::atomic<uint64_t> active_sessions_{0};
  /// Outstanding epoch pins across all sessions (the /metrics gauge —
  /// sessions are thread-local, so the gauge is kept here).
  std::atomic<uint64_t> session_pins_{0};

  common::Mutex sched_mu_;
  common::CondVar sched_cv_;
  bool drain_requested_ GUARDED_BY(sched_mu_) = false;
  /// Set by the scheduler thread once it has drained and exited; from
  /// then on admission answers SHUTTING_DOWN instead of enqueueing
  /// work nothing would ever execute.
  bool sched_closed_ GUARDED_BY(sched_mu_) = false;
  std::thread sched_thread_;

  common::Mutex ser_mu_ ACQUIRED_AFTER(sched_mu_);
  common::CondVar ser_cv_;
  std::deque<SerTask> ser_tasks_ GUARDED_BY(ser_mu_);
  std::thread ser_thread_;
};

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_SERVER_H_
