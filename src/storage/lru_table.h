// Copyright 2026 The OCTOPUS Reproduction Authors
// The two O(1) bookkeeping structures the buffer pool and the lease
// table share, both over small integer indices into a caller-owned
// entry array (frames, leases):
//
//  * `IndexHashTable` — an open-addressed key -> index map with linear
//    probing and backward-shift deletion. The table stores indices only;
//    the key of an occupied slot is read back from the caller's entry, so
//    a lookup is one multiply and (at load <= 1/2) about one probe, and
//    nothing allocates after `Reset`.
//  * `LruList` — a doubly linked list threaded through an index-addressed
//    link array: head = least recently used, tail = most recently used.
//    Touching an entry is an unlink and a relink; the replacement victim
//    is found from the head, skipping only entries that cannot be dropped.
#ifndef OCTOPUS_STORAGE_LRU_TABLE_H_
#define OCTOPUS_STORAGE_LRU_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace octopus::storage {

inline constexpr uint32_t kNoIndex = ~0u;

class IndexHashTable {
 public:
  /// Empties the table and sizes it to the smallest power of two (at
  /// least 8) not below `min_slots`.
  void Reset(size_t min_slots) {
    size_t n = 8;
    while (n < min_slots) n <<= 1;
    slots_.assign(n, kNoIndex);
    mask_ = n - 1;
  }

  size_t num_slots() const { return slots_.size(); }

  /// The index stored under `key`, or kNoIndex. `is_key(index)` tells
  /// whether the entry at `index` has this key.
  template <typename IsKey>
  uint32_t Find(uint64_t key, IsKey is_key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const uint32_t index = slots_[i];
      if (index == kNoIndex || is_key(index)) return index;
    }
  }

  /// Stores `index` under `key` (which must not be present).
  void Insert(uint64_t key, uint32_t index) {
    size_t i = Home(key);
    while (slots_[i] != kNoIndex) i = (i + 1) & mask_;
    slots_[i] = index;
  }

  /// Removes `index`, stored under `key`. `key_of(index)` returns the key
  /// of any other stored entry: linear-probing backward shift pulls
  /// displaced entries over the hole so probe chains stay unbroken.
  template <typename KeyOf>
  void Erase(uint64_t key, uint32_t index, KeyOf key_of) {
    size_t hole = Home(key);
    while (slots_[hole] != index) {
      assert(slots_[hole] != kNoIndex && "erase of an absent index");
      hole = (hole + 1) & mask_;
    }
    for (size_t j = hole;;) {
      j = (j + 1) & mask_;
      if (slots_[j] == kNoIndex) break;
      const size_t home = Home(key_of(slots_[j]));
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kNoIndex;
  }

 private:
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

class LruList {
 public:
  /// Makes room for indices below `n` (new indices start unlinked).
  void Grow(size_t n) {
    if (links_.size() < n) links_.resize(n);
  }

  /// Least recently used index (kNoIndex when empty) and the index after
  /// `i` towards the most recently used end.
  uint32_t head() const { return head_; }
  uint32_t next(uint32_t i) const { return links_[i].next; }

  /// Links the unlinked `i` as most (`PushBack`) or least (`PushFront`)
  /// recently used.
  void PushBack(uint32_t i) {
    links_[i] = {tail_, kNoIndex};
    (tail_ == kNoIndex ? head_ : links_[tail_].next) = i;
    tail_ = i;
  }
  void PushFront(uint32_t i) {
    links_[i] = {kNoIndex, head_};
    (head_ == kNoIndex ? tail_ : links_[head_].prev) = i;
    head_ = i;
  }

  /// Unlinks the linked `i`.
  void Remove(uint32_t i) {
    const Link link = links_[i];
    (link.prev == kNoIndex ? head_ : links_[link.prev].next) = link.next;
    (link.next == kNoIndex ? tail_ : links_[link.next].prev) = link.prev;
  }

  /// Marks the linked `i` most recently used.
  void Touch(uint32_t i) {
    if (i == tail_) return;
    Remove(i);
    PushBack(i);
  }

 private:
  struct Link {
    uint32_t prev = kNoIndex;
    uint32_t next = kNoIndex;
  };
  std::vector<Link> links_;
  uint32_t head_ = kNoIndex;
  uint32_t tail_ = kNoIndex;
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_LRU_TABLE_H_
