// Copyright 2026 The OCTOPUS Reproduction Authors
#include "common/hilbert.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace octopus {

HilbertCurve3D::HilbertCurve3D(int bits) : bits_(bits) {
  assert(bits >= 1 && bits <= 21);
}

namespace {

// Skilling's transform: convert between Hilbert-transposed form and axes.
// Reference: J. Skilling, "Programming the Hilbert curve", AIP 2004.
void AxesToTranspose(uint32_t* x, int b, int n) {
  uint32_t m = 1u << (b - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (int i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (int i = 0; i < n; ++i) x[i] ^= t;
}

void TransposeToAxes(uint32_t* x, int b, int n) {
  const uint32_t m = 2u << (b - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[n - 1] >> 1;
  for (int i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != m; q <<= 1) {
    const uint32_t p = q - 1;
    for (int i = n - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
}

}  // namespace

uint64_t HilbertCurve3D::Encode(uint32_t px, uint32_t py, uint32_t pz) const {
  assert(px < (1u << bits_) && py < (1u << bits_) && pz < (1u << bits_));
  uint32_t x[3] = {px, py, pz};
  AxesToTranspose(x, bits_, 3);
  // Interleave the transposed words, MSB first, into a single key.
  uint64_t d = 0;
  for (int bit = bits_ - 1; bit >= 0; --bit) {
    for (int i = 0; i < 3; ++i) {
      d = (d << 1) | ((x[i] >> bit) & 1u);
    }
  }
  return d;
}

void HilbertCurve3D::Decode(uint64_t d, uint32_t* px, uint32_t* py,
                            uint32_t* pz) const {
  uint32_t x[3] = {0, 0, 0};
  for (int bit = bits_ - 1; bit >= 0; --bit) {
    for (int i = 0; i < 3; ++i) {
      x[i] = (x[i] << 1) | static_cast<uint32_t>(
                               (d >> (3 * bit + (2 - i))) & 1u);
    }
  }
  TransposeToAxes(x, bits_, 3);
  *px = x[0];
  *py = x[1];
  *pz = x[2];
}

uint64_t HilbertCurve3D::EncodePoint(const Vec3& p, const AABB& bounds) const {
  const uint32_t cells = 1u << bits_;
  const Vec3 ext = bounds.Extent();
  // Written so that NaN (a non-finite point, or bounds whose extent
  // overflows) lands in cell 0 instead of reaching the float-to-integer
  // cast, which is undefined for NaN.
  auto quantize = [cells](float v, float lo, float extent) -> uint32_t {
    if (!(extent > 0.0f)) return 0;
    const float t = (v - lo) / extent;
    if (!(t > 0.0f)) return 0;
    if (t >= 1.0f) return cells - 1;
    return std::min(static_cast<uint32_t>(t * static_cast<float>(cells)),
                    cells - 1);
  };
  return Encode(quantize(p.x, bounds.min.x, ext.x),
                quantize(p.y, bounds.min.y, ext.y),
                quantize(p.z, bounds.min.z, ext.z));
}

}  // namespace octopus
