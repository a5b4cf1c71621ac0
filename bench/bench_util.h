// Copyright 2026 The OCTOPUS Reproduction Authors
// Back-compat shim for the measurement harness (which moved into the
// library, harness/bench_harness.h, so it is tested and reusable) plus
// bench-side helpers: a tiny JSON writer so benches can emit
// machine-readable results (e.g. BENCH_micro.json) and the perf
// trajectory can be tracked across PRs.
#ifndef OCTOPUS_BENCH_BENCH_UTIL_H_
#define OCTOPUS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_harness.h"

// Set by CMake at configure time for every bench target.
#ifndef OCTOPUS_GIT_SHA
#define OCTOPUS_GIT_SHA "unknown"
#endif
#ifndef OCTOPUS_BUILD_TYPE
#define OCTOPUS_BUILD_TYPE "unknown"
#endif

namespace octopus::bench {

/// \brief Minimal JSON emitter: an array of flat objects, enough for
/// bench records ({"name": ..., "real_time_ns": ...}) without a
/// dependency on a JSON library.
///
/// The first object is always the run's provenance record: {"name":
/// "provenance", git_sha, build_type, hardware_threads, scale, steps}.
/// tools/check_perf_smoke.py rejects a file without it.
class JsonWriter {
 public:
  /// `scale` and `steps` are the bench's settings (steps 0 for a bench
  /// that simulates no steps).
  JsonWriter(double scale, int steps) {
    BeginObject();
    Field("name", "provenance");
    Field("git_sha", OCTOPUS_GIT_SHA);
    Field("build_type", OCTOPUS_BUILD_TYPE);
    Field("hardware_threads",
          static_cast<int64_t>(std::thread::hardware_concurrency()));
    Field("scale", scale);
    Field("steps", static_cast<int64_t>(steps));
    EndObject();
  }

  void BeginObject() { first_field_ = true; current_ = "{"; }

  void Field(const std::string& name, const std::string& value) {
    AppendKey(name);
    current_ += '"' + Escaped(value) + '"';
  }
  void Field(const std::string& name, const char* value) {
    Field(name, std::string(value));
  }
  void Field(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    AppendKey(name);
    current_ += buf;
  }
  void Field(const std::string& name, int64_t value) {
    AppendKey(name);
    current_ += std::to_string(value);
  }

  void EndObject() {
    current_ += "}";
    objects_.push_back(current_);
    current_.clear();
  }

  /// The whole document: a JSON array of the finished objects.
  std::string ToString() const {
    std::string doc = "[\n";
    for (size_t i = 0; i < objects_.size(); ++i) {
      doc += "  " + objects_[i];
      if (i + 1 < objects_.size()) doc += ",";
      doc += "\n";
    }
    doc += "]\n";
    return doc;
  }

  /// Writes the document to `path`; returns false on I/O failure.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string doc = ToString();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
  }

  size_t num_objects() const { return objects_.size(); }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  void AppendKey(const std::string& name) {
    if (!first_field_) current_ += ", ";
    first_field_ = false;
    current_ += '"' + Escaped(name) + "\": ";
  }

  std::vector<std::string> objects_;
  std::string current_;
  bool first_field_ = true;
};

}  // namespace octopus::bench

#endif  // OCTOPUS_BENCH_BENCH_UTIL_H_
