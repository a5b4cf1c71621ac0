// Copyright 2026 The OCTOPUS Reproduction Authors
#include "obs/metrics_registry.h"

#include <cinttypes>
#include <cstdio>

namespace octopus::obs {

namespace {

/// %.17g round-trips every double; trims to a compact form for the
/// common integral values.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void MetricsRegistry::Header(const std::string& name,
                             const std::string& help, const char* type) {
  text_.append("# HELP ").append(name).append(" ").append(help).append(
      "\n");
  text_.append("# TYPE ").append(name).append(" ").append(type).append(
      "\n");
}

void MetricsRegistry::AddCounter(const std::string& name,
                                 const std::string& help, double value) {
  Header(name, help, "counter");
  text_.append(name).append(" ").append(FormatDouble(value)).append("\n");
}

void MetricsRegistry::AddGauge(const std::string& name,
                               const std::string& help, double value) {
  Header(name, help, "gauge");
  text_.append(name).append(" ").append(FormatDouble(value)).append("\n");
}

void MetricsRegistry::AddNanosHistogram(
    const std::string& name, const std::string& help,
    std::span<const uint64_t> bucket_counts,
    std::span<const uint64_t> upper_bounds_nanos, double sum_seconds) {
  Header(name, help, "histogram");
  // Empty buckets are elided entirely: a zero-count bucket's cumulative
  // series line would repeat its predecessor's value, and counts never
  // decrease, so a later scrape's bucket keys are always a superset of
  // an earlier one's (tools/check_metrics.py relies on this).
  uint64_t cumulative = 0;
  const size_t n = bucket_counts.size() < upper_bounds_nanos.size()
                       ? bucket_counts.size()
                       : upper_bounds_nanos.size();
  for (size_t i = 0; i < n; ++i) {
    if (bucket_counts[i] == 0) continue;
    cumulative += bucket_counts[i];
    const double le_seconds =
        static_cast<double>(upper_bounds_nanos[i]) / 1e9;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{le=\"%.17g\"} %" PRIu64 "\n",
                  le_seconds, cumulative);
    text_.append(name).append("_bucket").append(buf);
  }
  const uint64_t count = cumulative;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %" PRIu64 "\n", count);
  text_.append(name).append("_bucket").append(buf);
  text_.append(name).append("_sum ").append(FormatDouble(sum_seconds))
      .append("\n");
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", count);
  text_.append(name).append("_count").append(buf);
}

}  // namespace octopus::obs
