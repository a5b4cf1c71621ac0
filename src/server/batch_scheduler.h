// Copyright 2026 The OCTOPUS Reproduction Authors
// Cross-client batch coalescing: the scheduler collects range-query
// requests arriving from many connections, for the current epoch or any
// historical one, and folds the requests of one epoch into one
// `engine::QueryBatch` when either (a) the oldest pending request's
// coalescing window expires or (b) enough queries have accumulated —
// then executes once on the backend at that epoch and demultiplexes
// per-request results. This is where the paper's "tens to hundreds of
// queries per time step" batching meets a multi-tenant server:
// concurrent monitoring clients share one probe->walk->crawl sweep per
// window instead of one per request. A batch is epoch-consistent, so
// only requests for the same epoch share one; the others keep their
// place in the one queue, and one admission bound counts them all.
//
// No threads of its own: the server's scheduler thread drives it under
// one mutex, asking `NanosUntilDue` to size its condition-variable wait
// and calling `ExecuteReady` whenever a batch is due. Admission
// (`Enqueue`, from the I/O threads) synchronizes on that same mutex, so
// the scheduler never needs internal locking.
#ifndef OCTOPUS_SERVER_BATCH_SCHEDULER_H_
#define OCTOPUS_SERVER_BATCH_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/aabb.h"
#include "common/status.h"
#include "engine/query_batch.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/versioned_backend.h"

namespace octopus::server {

struct SchedulerOptions {
  /// Coalescing window: a pending request executes at latest this long
  /// after it arrived. 0 = execute as soon as the loop drains its
  /// sockets (still coalescing whatever arrived in the same poll round).
  int64_t window_nanos = 2'000'000;  // 2 ms
  /// A batch executes early once it holds at least this many queries.
  /// Whole requests are packed; a single request larger than the cap
  /// executes alone (the cap tunes coalescing, it is not a protocol
  /// limit).
  size_t max_batch_queries = 1024;
  /// Admission bound: total queries waiting to execute. Requests that
  /// would exceed it are rejected with an OVERLOADED error frame —
  /// except into an empty queue, which always admits, so a single
  /// request larger than the bound is served alone instead of being
  /// rejected forever.
  size_t max_pending_queries = 8192;
};

/// One client request waiting for execution.
struct PendingRequest {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  std::vector<AABB> boxes;
  /// The wire epoch the request reads: 0 = whatever is current at
  /// execution, any other value that published epoch.
  engine::EpochId epoch = 0;
  int64_t arrival_nanos = 0;  ///< event-loop monotonic clock
  /// Client-propagated span id (v6); 0 = the client sent none. Carried
  /// through execution into the slow-query log, never interpreted.
  uint64_t client_span_id = 0;
};

/// One executed request, ready to encode as a RESULT frame — or, when
/// `status` is not OK, as a request-scoped EPOCH_GONE error.
struct CompletedRequest {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  int64_t arrival_nanos = 0;
  /// When the batch holding this request started executing — the
  /// request's queue wait is `dispatch_nanos - arrival_nanos` (0 for
  /// inline paths that never queued).
  int64_t dispatch_nanos = 0;
  BatchStatsWire stats;  ///< stats of the coalesced batch that served it
  /// The request's slice of the batch results, in request query order.
  std::vector<std::vector<VertexId>> per_query;
  uint64_t client_span_id = 0;  ///< propagated from the request (v6)
  /// Not OK when the batch could not run at its epoch (evicted, never
  /// published, or its spilled pages could not be read back); the
  /// message travels in the EPOCH_GONE frame and nothing else is set.
  Status status;
};

/// Not internally synchronized BY DESIGN: the server declares its
/// `scheduler_` field `GUARDED_BY(sched_mu_)`, so clang's
/// thread-safety analysis rejects any unlocked call at compile time —
/// a mutex here would re-buy that guarantee at runtime cost and hide
/// the admission/execution critical sections the server deliberately
/// shares (admission blocks while a batch runs).
class BatchScheduler {
 public:
  explicit BatchScheduler(SchedulerOptions options) : options_(options) {}

  const SchedulerOptions& options() const { return options_; }

  /// Admission control: accepts the request into the pending queue, or
  /// returns false (queue full — caller sends OVERLOADED) leaving the
  /// queue untouched. Zero-query requests are accepted (they complete
  /// with an empty result at the next execution point).
  bool Enqueue(PendingRequest request);

  bool HasPending() const { return !pending_.empty(); }
  size_t pending_queries() const { return pending_query_count_; }

  /// Nanoseconds until the oldest pending request's window expires;
  /// <= 0 means a batch is due now, -1 means nothing is pending.
  int64_t NanosUntilDue(int64_t now_nanos) const;

  /// True when `ExecuteReady` would execute at least one batch now
  /// (window expired or the size trigger reached).
  bool ShouldExecute(int64_t now_nanos) const;

  /// Packs the head request's epoch group — the pending requests for
  /// the same epoch as the oldest one, FIFO, whole requests, up to the
  /// size cap — into one batch and executes it on `backend` at that
  /// epoch (every stamped RESULT of the batch carries that one epoch);
  /// requests for other epochs keep their place. Appends one
  /// `CompletedRequest` per packed request to `completed` and updates
  /// `metrics` (batch/query counters + engine totals). If the batch's
  /// epoch is gone, every packed request completes with that status
  /// and only `queries_rejected` moves. Call in a loop while
  /// `ShouldExecute` — one call executes exactly one batch.
  /// `dispatch_nanos` (the loop's clock at the call) is stamped onto
  /// every completed request so the flight recorder can attribute
  /// queue wait.
  void ExecuteReady(VersionedBackend* backend,
                    std::vector<CompletedRequest>* completed,
                    ServerMetrics* metrics, int64_t dispatch_nanos = 0);

  /// Drops every pending request of a disconnected session so its
  /// queries are not executed for nobody.
  void DropSession(uint64_t session_id);

 private:
  SchedulerOptions options_;
  std::deque<PendingRequest> pending_;
  size_t pending_query_count_ = 0;
  // Scratch reused across batches.
  std::vector<size_t> packed_;  ///< `pending_` indices of the batch
  engine::QueryBatch batch_;
  engine::QueryBatchResult batch_results_;
};

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_BATCH_SCHEDULER_H_
