#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

#include "common/error.hpp"

namespace zi {

namespace {

inline std::uint32_t float_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

inline float bits_float(std::uint32_t u) noexcept {
  return std::bit_cast<float>(u);
}

}  // namespace

std::uint16_t float_to_half_bits(float f) noexcept {
  const std::uint32_t x = float_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  std::uint32_t mant = x & 0x007FFFFFu;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFF) - 127;

  if (exp == 128) {
    // Inf / NaN. Preserve NaN-ness with a quiet mantissa bit.
    if (mant != 0) return static_cast<std::uint16_t>(sign | 0x7E00u);
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp > 15) {
    // Overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp >= -14) {
    // Normal half. Round mantissa from 23 to 10 bits, nearest-even.
    const std::uint32_t half_exp = static_cast<std::uint32_t>(exp + 15) << 10;
    std::uint32_t half_mant = mant >> 13;
    const std::uint32_t rem = mant & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (half_mant & 1u))) {
      // Carry may ripple into the exponent; that is correct behaviour
      // (e.g. rounding 2047.5 up to the next binade).
      return static_cast<std::uint16_t>(sign + half_exp + half_mant + 1u);
    }
    return static_cast<std::uint16_t>(sign | (half_exp | half_mant));
  }
  if (exp >= -25) {
    // Subnormal half. Add the implicit leading 1, then shift right.
    mant |= 0x00800000u;
    const int shift = -exp - 14 + 13;  // 14..24
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem_mask = (1u << shift) - 1u;
    const std::uint32_t rem = mant & rem_mask;
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) half_mant += 1u;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // Underflow to signed zero.
  return static_cast<std::uint16_t>(sign);
}

float half_bits_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) return bits_float(sign);  // signed zero
    // Subnormal: normalize.
    int e = -1;
    do {
      ++e;
      mant <<= 1;
    } while ((mant & 0x400u) == 0);
    const std::uint32_t fexp = static_cast<std::uint32_t>(127 - 15 - e) << 23;
    return bits_float(sign | fexp | ((mant & 0x3FFu) << 13));
  }
  if (exp == 31) {
    // Inf / NaN.
    return bits_float(sign | 0x7F800000u | (mant << 13));
  }
  const std::uint32_t fexp = (exp + (127 - 15)) << 23;
  return bits_float(sign | fexp | (mant << 13));
}

// ---------------------------------------------------------------------------
// Bulk conversions. Each lane runs the integer form of the scalar routines
// above, every case computed and the right one selected by mask:
//   f16→f32  shift exponent and mantissa into place and rebias; Inf/NaN get
//            the float's all-ones exponent (payload kept); subnormals are
//            rebuilt exactly as (2^-14 + m·2^-24) − 2^-14 in float.
//   f32→f16  |x| ≥ 65536 gives Inf, or the quiet NaN 0x7E00 for a NaN;
//            |x| < 2^-14 rounds by the float add |x| + 0.5, whose result
//            ulp is the half subnormal step 2^-24, so the FPU's own
//            round-to-nearest-even does the work; normals add the
//            rebias, 0xFFF and the kept mantissa's low bit, then shift
//            (round half to even; a carry ripples into the exponent and,
//            past 65504, to Inf).
// The exhaustive tests in tests/test_half.cpp hold every lane to the
// scalar routines.

namespace {

// Generic 16-byte vectors: SSE2 at the x86-64 baseline ISA.
using V4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));
using H8 = std::uint16_t __attribute__((vector_size(16)));

constexpr std::size_t kLanes = 8;  // halves per 16-byte vector

V4 halves_to_float4(I4 h) {
  const I4 shifted = (h & 0x7FFF) << 13;
  const I4 exp = shifted & 0x0F800000;
  const I4 special = exp == 0x0F800000;  // Inf / NaN
  const I4 tiny = exp == 0;              // zero / subnormal
  const I4 normal = shifted + ((127 - 15) << 23);
  const I4 wide = normal + (special & ((128 - 16) << 23));
  const I4 renorm =
      std::bit_cast<I4>(std::bit_cast<V4>(normal + (1 << 23)) -
                        std::bit_cast<V4>(I4{} + (113 << 23)));
  const I4 mag = (tiny & renorm) | (~tiny & wide);
  return std::bit_cast<V4>(mag | ((h & 0x8000) << 16));
}

I4 float4_to_halves(V4 f) {
  const I4 x = std::bit_cast<I4>(f);
  const I4 a = x & 0x7FFFFFFF;  // |x|; signed compares below are safe
  const I4 big = a >= ((127 + 16) << 23);
  const I4 inf_nan = 0x7C00 | ((a > 0x7F800000) & 0x0200);
  const I4 small = a < (113 << 23);
  const I4 sub =
      std::bit_cast<I4>(std::bit_cast<V4>(a) + 0.5f) - (126 << 23);
  // Unsigned: the sum wraps in the Inf/NaN lanes, which `big` discards.
  const U4 ua = std::bit_cast<U4>(a);
  const I4 norm = std::bit_cast<I4>(
      (ua - (112u << 23) + 0xFFFu + ((ua >> 13) & 1u)) >> 13);
  const I4 mag = (big & inf_nan) | (~big & ((small & sub) | (~small & norm)));
  return mag | ((x >> 16) & 0x8000);
}

void halves_to_floats8(const half* src, float* dst) {
  H8 h;
  std::memcpy(&h, src, sizeof h);
  const H8 zero{};
  const I4 lo = std::bit_cast<I4>(
      __builtin_shufflevector(h, zero, 0, 8, 1, 9, 2, 10, 3, 11));
  const I4 hi = std::bit_cast<I4>(
      __builtin_shufflevector(h, zero, 4, 12, 5, 13, 6, 14, 7, 15));
  const V4 f[2] = {halves_to_float4(lo), halves_to_float4(hi)};
  std::memcpy(dst, f, sizeof f);
}

void floats_to_halves8(const float* src, half* dst) {
  V4 f[2];
  std::memcpy(f, src, sizeof f);
  const H8 lo = std::bit_cast<H8>(float4_to_halves(f[0]));
  const H8 hi = std::bit_cast<H8>(float4_to_halves(f[1]));
  const H8 h = __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
  std::memcpy(static_cast<void*>(dst), &h, sizeof h);
}

}  // namespace

void halves_to_floats(std::span<const half> src, std::span<float> dst) {
  ZI_CHECK_MSG(src.size() == dst.size(), "halves_to_floats: "
                                             << src.size() << " halves into "
                                             << dst.size() << " floats");
  const std::size_t n = src.size();
  const std::size_t full = n - n % kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    halves_to_floats8(src.data() + i, dst.data() + i);
  }
  if (full == n) return;
  // Tail: the same kernel over a zero-padded copy.
  half in[kLanes] = {};
  float out[kLanes] = {};
  std::memcpy(static_cast<void*>(in), src.data() + full,
              (n - full) * sizeof(half));
  halves_to_floats8(in, out);
  std::memcpy(dst.data() + full, out, (n - full) * sizeof(float));
}

void floats_to_halves(std::span<const float> src, std::span<half> dst) {
  ZI_CHECK_MSG(src.size() == dst.size(), "floats_to_halves: "
                                             << src.size() << " floats into "
                                             << dst.size() << " halves");
  const std::size_t n = src.size();
  const std::size_t full = n - n % kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    floats_to_halves8(src.data() + i, dst.data() + i);
  }
  if (full == n) return;
  float in[kLanes] = {};
  half out[kLanes];
  std::memcpy(in, src.data() + full, (n - full) * sizeof(float));
  floats_to_halves8(in, out);
  std::memcpy(static_cast<void*>(dst.data() + full), out,
              (n - full) * sizeof(half));
}

void halves_to_floats8_strided(const half* src, std::size_t stride,
                               std::size_t rows, float* dst) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    halves_to_floats8(src + r * stride, dst + r * kLanes);
  }
}

bool all_finite(std::span<const half> src) noexcept {
  const std::size_t n = src.size();
  const std::size_t full = n - n % kLanes;
  H8 special{};
  for (std::size_t i = 0; i < full; i += kLanes) {
    H8 h;
    std::memcpy(&h, src.data() + i, sizeof h);
    special |= std::bit_cast<H8>((h & 0x7C00) == 0x7C00);
  }
  for (std::size_t i = full; i < n; ++i) {
    if (!src[i].isfinite()) return false;
  }
  std::uint64_t any[2];
  std::memcpy(any, &special, sizeof any);
  return (any[0] | any[1]) == 0;
}


std::ostream& operator<<(std::ostream& os, half h) { return os << h.to_float(); }

bfloat16::bfloat16(float f) noexcept {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  if ((x & 0x7F800000u) == 0x7F800000u && (x & 0x007FFFFFu) != 0) {
    // NaN: keep quiet bit.
    bits_ = static_cast<std::uint16_t>((x >> 16) | 0x0040u);
    return;
  }
  // Round-to-nearest-even on the truncated 16 bits.
  const std::uint32_t rounding = 0x7FFFu + ((x >> 16) & 1u);
  bits_ = static_cast<std::uint16_t>((x + rounding) >> 16);
}

float bfloat16::to_float() const noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits_) << 16);
}

}  // namespace zi
