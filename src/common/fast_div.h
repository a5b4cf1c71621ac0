// Copyright 2026 The OCTOPUS Reproduction Authors
// The page arithmetic both mesh accessors share: entry `n` of an array
// packed `d` to a page is on page `Div(n)`, at entry `Rem(n, Div(n))`
// of it. It runs on every position read, where a hardware divide is
// measurable against a flat array read.
#ifndef OCTOPUS_COMMON_FAST_DIV_H_
#define OCTOPUS_COMMON_FAST_DIV_H_

#include <cassert>
#include <cstdint>

namespace octopus {

/// \brief Division by a divisor fixed at `Init`, by reciprocal
/// multiplication; exact for any 32-bit numerator. Requires `d >= 2`
/// (for 1 the magic wraps to 0); page sizes of 128 B to 16 MiB give
/// 10 to 2^22.
class FastDiv {
 public:
  void Init(uint32_t divisor) {
    assert(divisor >= 2 && "the reciprocal of 1 does not fit 64 bits");
    d_ = divisor;
    magic_ = ~0ull / divisor + 1;
  }
  uint32_t Div(uint32_t n) const {
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(magic_) * n) >> 64);
  }
  /// `n mod d`, given `q == Div(n)`.
  uint32_t Rem(uint32_t n, uint32_t q) const { return n - q * d_; }
  uint32_t divisor() const { return d_; }

 private:
  uint64_t magic_ = 0;
  uint32_t d_ = 1;
};

}  // namespace octopus

#endif  // OCTOPUS_COMMON_FAST_DIV_H_
