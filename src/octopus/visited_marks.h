// Copyright 2026 The OCTOPUS Reproduction Authors
// The visited marks of a graph traversal. One set per execution context
// serves both traversals of a query, the directed walk (paper Sec. IV-D)
// and the crawl (Sec. IV-B). The walk starts a fresh traversal with
// `Begin` and tests-and-sets with `Mark`. The crawl, which makes one
// test per adjacency entry it inspects, calls `Traverse` instead: it
// dispatches on the mode once and hands the loop a test-and-set whose
// stamp pointer and epoch are locals, so the compiler keeps them in
// registers rather than re-reading them after every store.
#ifndef OCTOPUS_OCTOPUS_VISITED_MARKS_H_
#define OCTOPUS_OCTOPUS_VISITED_MARKS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mesh/types.h"

namespace octopus {

/// How a traversal tracks visited vertices.
enum class VisitedMode {
  /// O(V) epoch-stamped array: fastest, one byte per mesh vertex.
  kEpochArray,
  /// Hash set of visited ids: memory proportional to the *result
  /// neighborhood* — the behaviour behind the paper's Fig. 10(b)
  /// footprint-vs-results correlation — at some speed cost.
  kHashSet,
};

/// \brief Reusable visited-vertex set, reset in O(1) per traversal.
///
/// In kEpochArray mode the stamp array is *not* cleared between
/// traversals: `Begin` advances an 8-bit epoch, and a vertex counts as
/// marked only if its stamp equals the current epoch. When the epoch
/// wraps, every 255 traversals, the array is refilled with zeros once.
/// This scratch space is counted in OCTOPUS's memory footprint (paper
/// Fig. 10(b)).
class VisitedMarks {
 public:
  /// One vertex's stamp. An enum rather than `uint8_t`: a store through
  /// a character type may alias any object, which would force the crawl
  /// to reload its accessor's and output vector's fields after every
  /// mark; an enum has its own alias set.
  enum class Stamp : uint8_t {};

  VisitedMarks() = default;
  explicit VisitedMarks(VisitedMode mode) : mode_(mode) {}

  /// Grows the stamp array to cover `num_vertices` (no-op in kHashSet
  /// mode).
  void EnsureSize(size_t num_vertices) {
    if (mode_ == VisitedMode::kEpochArray && stamps_.size() < num_vertices) {
      stamps_.resize(num_vertices, Stamp{0});
    }
  }

  /// True if vertex ids below `num_vertices` can be marked.
  bool Covers(size_t num_vertices) const {
    return mode_ == VisitedMode::kHashSet || stamps_.size() >= num_vertices;
  }

  /// Starts a new traversal: every vertex becomes unmarked.
  void Begin() {
    if (mode_ == VisitedMode::kEpochArray) {
      if (++epoch_ == 0) {
        // Epoch counter wrapped: reset all stamps once, then continue.
        std::fill(stamps_.begin(), stamps_.end(), Stamp{0});
        epoch_ = 1;
      }
    } else {
      set_.clear();
    }
  }

  /// Marks `v`; true if it was unmarked in the current traversal.
  bool Mark(VertexId v) {
    if (mode_ == VisitedMode::kEpochArray) {
      assert(v < stamps_.size());
      if (stamps_[v] == Stamp{epoch_}) return false;
      stamps_[v] = Stamp{epoch_};
      return true;
    }
    return set_.insert(v).second;
  }

  /// Starts a new traversal and returns `body(mark)`, where `mark(v)`
  /// behaves like `Mark(v)` for this traversal. The mode is read once
  /// here, so `body` is instantiated once per mode; `mark` holds the
  /// stamp pointer and epoch by value (or the hash set by reference) and
  /// must not outlive the call. `body` must not call `Begin` or `Mark`.
  template <typename Body>
  decltype(auto) Traverse(Body&& body) {
    Begin();
    if (mode_ == VisitedMode::kEpochArray) {
      Stamp* const stamps = stamps_.data();
      const Stamp epoch{epoch_};
      return body([stamps, epoch](VertexId v) {
        if (stamps[v] == epoch) return false;
        stamps[v] = epoch;
        return true;
      });
    }
    return body([&set = set_](VertexId v) { return set.insert(v).second; });
  }

  /// Current epoch (kEpochArray mode). Exposed with the setter below so
  /// tests can drive the counter to its wraparound.
  uint8_t epoch() const { return epoch_; }
  void set_epoch_for_testing(uint8_t epoch) { epoch_ = epoch; }

  /// Bytes of stamps, or of hash-set entries (estimated per node).
  size_t ScratchBytes() const {
    return stamps_.capacity() * sizeof(Stamp) +
           set_.size() * (sizeof(VertexId) + 16);
  }

 private:
  VisitedMode mode_ = VisitedMode::kEpochArray;
  std::vector<Stamp> stamps_;
  uint8_t epoch_ = 0;
  std::unordered_set<VertexId> set_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_VISITED_MARKS_H_
