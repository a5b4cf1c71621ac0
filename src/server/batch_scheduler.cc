// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/batch_scheduler.h"

#include <algorithm>
#include <utility>

namespace octopus::server {

bool BatchScheduler::Enqueue(PendingRequest request) {
  const size_t queries = request.boxes.size();
  // An empty queue always admits, even a request larger than the bound
  // by itself — mirroring the batch cap's execute-alone rule, so an
  // oversized request is served (alone) rather than rejected forever.
  if (!pending_.empty() &&
      pending_query_count_ + queries > options_.max_pending_queries) {
    return false;
  }
  pending_query_count_ += queries;
  pending_.push_back(std::move(request));
  return true;
}

int64_t BatchScheduler::NanosUntilDue(int64_t now_nanos) const {
  if (pending_.empty()) return -1;
  if (pending_query_count_ >= options_.max_batch_queries) return 0;
  const int64_t due = pending_.front().arrival_nanos + options_.window_nanos;
  return std::max<int64_t>(due - now_nanos, 0);
}

bool BatchScheduler::ShouldExecute(int64_t now_nanos) const {
  return !pending_.empty() && NanosUntilDue(now_nanos) == 0;
}

void BatchScheduler::ExecuteReady(VersionedBackend* backend,
                                  std::vector<CompletedRequest>* completed,
                                  ServerMetrics* metrics,
                                  int64_t dispatch_nanos) {
  if (pending_.empty()) return;

  // Pack the head's epoch group: whole requests FIFO until the size
  // cap, skipping (not reordering) requests for other epochs. Always
  // take the head, so an oversized request executes alone rather than
  // starving.
  const engine::EpochId epoch = pending_.front().epoch;
  packed_.clear();
  size_t batch_queries = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].epoch != epoch) continue;
    const size_t next = pending_[i].boxes.size();
    if (!packed_.empty() &&
        batch_queries + next > options_.max_batch_queries) {
      break;
    }
    batch_queries += next;
    packed_.push_back(i);
  }

  batch_.boxes.clear();
  batch_.boxes.reserve(batch_queries);
  for (const size_t i : packed_) {
    batch_.boxes.insert(batch_.boxes.end(), pending_[i].boxes.begin(),
                        pending_[i].boxes.end());
  }

  PhaseStats batch_stats;
  const Status status = backend->ExecuteAt(epoch, batch_.View(),
                                           &batch_results_, &batch_stats);
  BatchStatsWire wire;
  if (status.ok()) {
    metrics->batches_executed += 1;
    metrics->queries_executed += batch_queries;
    metrics->MergeEngine(batch_stats);
    wire = BatchStatsWire::FromPhaseStats(
        batch_stats, static_cast<uint32_t>(batch_queries),
        static_cast<uint32_t>(packed_.size()), batch_results_.epoch);
  } else {
    metrics->queries_rejected += batch_queries;
  }

  // Demultiplex: each request gets its contiguous slice of the batch.
  size_t offset = 0;
  for (const size_t i : packed_) {
    PendingRequest& request = pending_[i];
    CompletedRequest done;
    done.session_id = request.session_id;
    done.request_id = request.request_id;
    done.arrival_nanos = request.arrival_nanos;
    done.dispatch_nanos = dispatch_nanos;
    done.client_span_id = request.client_span_id;
    done.status = status;
    if (status.ok()) {
      done.stats = wire;
      done.per_query.reserve(request.boxes.size());
      for (size_t q = 0; q < request.boxes.size(); ++q) {
        done.per_query.push_back(
            std::move(batch_results_.per_query[offset + q]));
      }
    }
    offset += request.boxes.size();
    completed->push_back(std::move(done));
  }

  // Remove the packed requests; the rest keep their arrival order.
  size_t kept = 0;
  for (size_t i = 0, p = 0; i < pending_.size(); ++i) {
    if (p < packed_.size() && packed_[p] == i) {
      ++p;
      continue;
    }
    if (kept != i) pending_[kept] = std::move(pending_[i]);
    ++kept;
  }
  pending_.resize(kept);
  pending_query_count_ -= batch_queries;
}

void BatchScheduler::DropSession(uint64_t session_id) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->session_id == session_id) {
      pending_query_count_ -= it->boxes.size();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace octopus::server
