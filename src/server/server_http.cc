// Copyright 2026 The OCTOPUS Reproduction Authors
// The introspection HTTP side of `QueryServer`: the metric source read
// once per /metrics scrape or STATS reply, and the /metrics, /epochs,
// /journal and /readyz renderers behind `RouteHttp`.
#include <cstdio>

#include "obs/metrics_registry.h"
#include "server/server.h"

namespace octopus::server {

MetricsSource QueryServer::ReadMetricsSource() const {
  MetricsSource source;
  source.metrics = MetricsSnapshot();
  source.engine = source.metrics.EngineTotal();
  source.epoch = backend_->CurrentEpoch();
  source.epoch_reload_pages = backend_->epoch_reload_pages();
  if (const EpochStore* store = backend_->epoch_store()) {
    source.resident_epochs = store->resident_epochs();
    source.spilled_epochs = store->spilled_epochs();
    source.epoch_resident_bytes = store->resident_bytes();
    source.epochs_evicted = store->epochs_evicted();
    source.spill_pages_written = store->spill_pages_written();
    source.spill_bytes_written = store->spill_bytes_written();
    source.sidecar_bytes = store->sidecar_bytes();
    source.spill_pages_free = store->spill_pages_free();
  }
  if (const storage::BufferManager* pool = backend_->buffer_manager()) {
    source.pool_cap_bytes = pool->PoolCapBytes();
    source.pool_resident_bytes = pool->AllocatedBytes();
    source.pool_evictions = pool->TotalStats().page_evictions;
  }
  if (const obs::EventJournal* journal = options_.journal) {
    source.journal_events = journal->total_emitted();
    source.journal_ring_events = journal->size();
  }
  source.session_pins = session_pins_.load(std::memory_order_relaxed);
  source.trace_records = recorder_.total_recorded();
  source.trace_ring_records = recorder_.size();
  source.io_threads = ResolvedIoThreads();
  return source;
}

std::string QueryServer::RenderMetricsText() const {
  obs::MetricsRegistry registry;
  EmitMetrics(ReadMetricsSource(), &registry, nullptr);
  return registry.ExpositionText();
}

std::string QueryServer::RenderEpochsJson() const {
  std::string out;
  char buf[384];
  const engine::EpochInfo current = backend_->CurrentEpoch();
  const EpochStore* store = backend_->epoch_store();
  std::snprintf(buf, sizeof(buf),
                "{\"dynamic\":%s,\"current_epoch\":%llu,\"current_step\":%u",
                store != nullptr ? "true" : "false",
                static_cast<unsigned long long>(current.epoch),
                current.step);
  out += buf;
  if (store == nullptr) {
    // Static backend: exactly one implicit epoch, nothing retained.
    out += ",\"entries\":[]}";
    return out;
  }
  const EpochStoreView view = store->View();
  uint64_t spill_failed = 0;
  for (const EpochEntryView& entry : view.entries) {
    if (entry.spill_failed) ++spill_failed;
  }
  std::snprintf(
      buf, sizeof(buf),
      ",\"resident_bytes\":%llu,\"evicted_total\":%llu,"
      "\"spill\":{\"enabled\":%s,\"pages_written\":%llu,"
      "\"bytes_written\":%llu,\"sidecar_bytes\":%llu,"
      "\"pages_free\":%llu,\"failed_epochs\":%llu},\"entries\":[",
      static_cast<unsigned long long>(view.resident_bytes),
      static_cast<unsigned long long>(view.evicted_total),
      view.spill_enabled ? "true" : "false",
      static_cast<unsigned long long>(view.spill_pages_written),
      static_cast<unsigned long long>(view.spill_bytes_written),
      static_cast<unsigned long long>(view.sidecar_bytes),
      static_cast<unsigned long long>(view.spill_pages_free),
      static_cast<unsigned long long>(spill_failed));
  out += buf;
  for (size_t i = 0; i < view.entries.size(); ++i) {
    const EpochEntryView& entry = view.entries[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"epoch\":%llu,\"step\":%u,\"resident\":%s,\"spilled\":%s,"
        "\"spill_failed\":%s,\"pins\":%u,\"resident_bytes\":%llu}",
        i == 0 ? "" : ",",
        static_cast<unsigned long long>(entry.info.epoch), entry.info.step,
        entry.resident ? "true" : "false", entry.spilled ? "true" : "false",
        entry.spill_failed ? "true" : "false", entry.pins,
        static_cast<unsigned long long>(entry.resident_bytes));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string QueryServer::RenderJournalJson() const {
  if (options_.journal == nullptr) {
    return "{\"total\":0,\"capacity\":0,\"events\":[]}";
  }
  return options_.journal->RenderJson();
}

obs::HttpTextEndpoint::Response QueryServer::ReadyzResponse() const {
  // Liveness is /healthz; THIS endpoint answers "should traffic be
  // routed here": 503 when the stepper has stopped publishing (lag over
  // the configured bound) or the spill sidecar is failing epochs.
  bool ready = true;
  const char* reason = "";
  int64_t lag_nanos = -1;
  uint64_t spill_failed = 0;
  if (const EpochStore* store = backend_->epoch_store()) {
    spill_failed = store->spill_failed_epochs();
    const int64_t last = store->last_publish_steady_nanos();
    if (last > 0) lag_nanos = NowNanos() - last;
    if (spill_failed > 0) {
      ready = false;
      reason = "spill sidecar failing";
    } else if (options_.ready_max_publish_lag_nanos > 0 && lag_nanos >= 0 &&
               lag_nanos > options_.ready_max_publish_lag_nanos) {
      ready = false;
      reason = "epoch publication stalled";
    }
  }
  char buf[320];
  char lag[32];
  if (lag_nanos >= 0) {
    std::snprintf(lag, sizeof(lag), "%.3f",
                  static_cast<double>(lag_nanos) / 1e9);
  } else {
    std::snprintf(lag, sizeof(lag), "null");
  }
  std::snprintf(
      buf, sizeof(buf),
      "{\"ready\":%s,\"dynamic\":%s,\"publish_lag_seconds\":%s,"
      "\"max_publish_lag_seconds\":%.3f,\"spill_failed_epochs\":%llu,"
      "\"reason\":\"%s\"}\n",
      ready ? "true" : "false", backend_->dynamic() ? "true" : "false", lag,
      static_cast<double>(options_.ready_max_publish_lag_nanos) / 1e9,
      static_cast<unsigned long long>(spill_failed), reason);
  obs::HttpTextEndpoint::Response response;
  response.status = ready ? 200 : 503;
  response.content_type = "application/json; charset=utf-8";
  response.body = buf;
  return response;
}

obs::HttpTextEndpoint::Response QueryServer::RouteHttp(
    const std::string& path) const {
  obs::HttpTextEndpoint::Response response;
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderMetricsText();
    return response;
  }
  if (path == "/healthz") {
    // Pure liveness: the main thread is alive enough to answer.
    response.body = "ok\n";
    return response;
  }
  if (path == "/readyz") return ReadyzResponse();
  if (path == "/epochs") {
    response.content_type = "application/json; charset=utf-8";
    response.body = RenderEpochsJson();
    return response;
  }
  if (path == "/journal") {
    response.content_type = "application/json; charset=utf-8";
    response.body = RenderJournalJson();
    return response;
  }
  return obs::HttpTextEndpoint::NotFound();
}

}  // namespace octopus::server
