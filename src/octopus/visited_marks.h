// Copyright 2026 The OCTOPUS Reproduction Authors
// The visited marks of a graph traversal. One set per execution context
// serves both traversals of a query, the directed walk (paper Sec. IV-D)
// and the crawl (Sec. IV-B): each starts a fresh traversal with `Begin`
// and tests-and-sets with `Mark`. Both calls are defined here, in the
// header, because the crawl makes one per adjacency entry it inspects.
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
  /// O(V) epoch-stamped array: fastest, memory proportional to the mesh.
  kEpochArray,
  /// Hash set of visited ids: memory proportional to the *result
  /// neighborhood* — the behaviour behind the paper's Fig. 10(b)
  /// footprint-vs-results correlation — at some speed cost.
  kHashSet,
};

/// \brief Reusable visited-vertex set, reset in O(1) per traversal.
///
/// In kEpochArray mode the stamp array is *not* cleared between
/// traversals: `Begin` advances an epoch, and a vertex counts as marked
/// only if its stamp equals the current epoch. This scratch space is
/// counted in OCTOPUS's memory footprint (paper Fig. 10(b)).
class VisitedMarks {
 public:
  VisitedMarks() = default;
  explicit VisitedMarks(VisitedMode mode) : mode_(mode) {}

  /// Grows the stamp array to cover `num_vertices` (no-op in kHashSet
  /// mode).
  void EnsureSize(size_t num_vertices) {
    if (mode_ == VisitedMode::kEpochArray && stamps_.size() < num_vertices) {
      stamps_.resize(num_vertices, 0);
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
        std::fill(stamps_.begin(), stamps_.end(), 0u);
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
      if (stamps_[v] == epoch_) return false;
      stamps_[v] = epoch_;
      return true;
    }
    return set_.insert(v).second;
  }

  /// Current epoch (kEpochArray mode). Exposed with the setter below so
  /// tests can drive the counter to its wraparound (2^32 traversals
  /// would otherwise be needed to reach the reset path).
  uint32_t epoch() const { return epoch_; }
  void set_epoch_for_testing(uint32_t epoch) { epoch_ = epoch; }

  /// Bytes of stamps, or of hash-set entries (estimated per node).
  size_t ScratchBytes() const {
    return stamps_.capacity() * sizeof(uint32_t) +
           set_.size() * (sizeof(VertexId) + 16);
  }

 private:
  VisitedMode mode_ = VisitedMode::kEpochArray;
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
  std::unordered_set<VertexId> set_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_VISITED_MARKS_H_
