// Copyright 2026 The OCTOPUS Reproduction Authors
// Typed metric registry with a Prometheus text-exposition writer
// (format 0.0.4: `# HELP` / `# TYPE` comment pairs, one sample line per
// series, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum`/`_count`).
//
// Usage model is build-render-discard: the scrape handler constructs a
// fresh registry, adds every row of the server's metric table
// (`server::EmitMetrics`) over one read of its sources, and renders it.
// No retained state means no second writer and no staleness — the
// scrape sees exactly the counters of the moment it was served. OCTP
// STATS carries the same rows' values from the same loop
// (ServerIntegrationTest.MetricsEndpointMatchesOctpStats in
// tests/test_server.cc compares the two over a live server).
#ifndef OCTOPUS_OBS_METRICS_REGISTRY_H_
#define OCTOPUS_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <span>
#include <string>

namespace octopus::obs {

/// \brief Append-only collection of typed metrics rendering to
/// Prometheus text exposition. Metric names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (validated by tools/check_metrics.py in
/// CI; the registry itself trusts its callers).
class MetricsRegistry {
 public:
  /// Monotone counter in its base unit (seconds for time). By
  /// convention the name ends in `_total`.
  void AddCounter(const std::string& name, const std::string& help,
                  double value);

  /// Point-in-time value.
  void AddGauge(const std::string& name, const std::string& help,
                double value);

  /// Histogram over explicit nanosecond buckets: `bucket_counts[i]`
  /// holds samples whose value is <= `upper_bounds_nanos[i]` and above
  /// the previous bound (the repo's `server::LatencyHistogram` supplies
  /// its log-linear bounds via `BucketUpperBounds()`). Rendered as
  /// cumulative `_bucket` series with `le` in seconds, empty buckets
  /// elided (a zero-count bucket repeats the cumulative value of its
  /// predecessor, so eliding it loses nothing and keeps the ~1000-line
  /// worst case off the scrape), plus the implicit `+Inf` bucket,
  /// `_sum` and `_count` (both totals derived from `bucket_counts`).
  void AddNanosHistogram(const std::string& name, const std::string& help,
                         std::span<const uint64_t> bucket_counts,
                         std::span<const uint64_t> upper_bounds_nanos,
                         double sum_seconds);

  /// The accumulated exposition text.
  const std::string& ExpositionText() const { return text_; }

 private:
  void Header(const std::string& name, const std::string& help,
              const char* type);

  std::string text_;
};

}  // namespace octopus::obs

#endif  // OCTOPUS_OBS_METRICS_REGISTRY_H_
