#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

#include "common/error.hpp"
#include "common/kernel_tier.hpp"

#include <immintrin.h>

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
// Bulk conversions, in two tiers (common/kernel_tier.hpp) run by one loop
// body per direction, eight elements per lane-kernel call, tails through a
// zero-padded copy.
//
// SSE2 tier: each lane runs the integer form of the scalar routines above,
// every case computed and the right one selected by mask:
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
// F16C tier: vcvtph2ps / vcvtps2ph with round to nearest even, which agree
// with the scalar routines everywhere but on NaNs, fixed up by mask:
//   f16→f32  F16C sets the quiet bit of a signalling NaN; the scalar routine
//            keeps the payload as it is, so the bit is cleared again.
//   f32→f16  F16C keeps the top of a NaN's payload; the scalar routine
//            gives 0x7E00 with the sign, so each NaN is first replaced by
//            the float quiet NaN of its sign, which narrows to exactly that.
// The tests in tests/test_half.cpp and tests/test_half_exhaustive.cpp hold
// both tiers to the scalar routines.

namespace {

// Generic 16-byte vectors: SSE2 at the x86-64 baseline ISA.
using V4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));
using H8 = std::uint16_t __attribute__((vector_size(16)));

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

// Each tier moves eight floats at a time through an F8: two 16-byte vectors
// in the SSE2 tier, one 32-byte vector in the wide one. F8s pass only by
// reference, so no 32-byte vector meets the baseline calling convention.
struct Sse2 {
  static constexpr std::size_t kStep = 8;  // elements per loop iteration
  struct F8 {
    V4 lo, hi;
  };

  static void zero8(F8& f) { f.lo = f.hi = V4{}; }
  static void add8(F8& acc, const F8& term) {
    acc.lo += term.lo;
    acc.hi += term.hi;
  }
  static void load8(F8& f, const float* src) {
    std::memcpy(&f, src, sizeof f);
  }
  static void store8(const F8& f, float* dst) {
    std::memcpy(dst, &f, sizeof f);
  }

  static void load8(F8& f, const half* src) {
    H8 h;
    std::memcpy(&h, src, sizeof h);
    const H8 zero{};
    f.lo = halves_to_float4(std::bit_cast<I4>(
        __builtin_shufflevector(h, zero, 0, 8, 1, 9, 2, 10, 3, 11)));
    f.hi = halves_to_float4(std::bit_cast<I4>(
        __builtin_shufflevector(h, zero, 4, 12, 5, 13, 6, 14, 7, 15)));
  }

  static void store8(const F8& f, half* dst) {
    const H8 lo = std::bit_cast<H8>(float4_to_halves(f.lo));
    const H8 hi = std::bit_cast<H8>(float4_to_halves(f.hi));
    const H8 h = __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
    std::memcpy(static_cast<void*>(dst), &h, sizeof h);
  }
};

struct F16c {
  static constexpr std::size_t kStep = 16;
  struct F8 {
    __m256 v;
  };

  [[gnu::target("avx2,f16c")]] static void zero8(F8& f) {
    f.v = _mm256_setzero_ps();
  }
  [[gnu::target("avx2,f16c")]] static void add8(F8& acc, const F8& term) {
    acc.v = _mm256_add_ps(acc.v, term.v);
  }
  [[gnu::target("avx2,f16c")]] static void load8(F8& f, const float* src) {
    f.v = _mm256_loadu_ps(src);
  }
  [[gnu::target("avx2,f16c")]] static void store8(const F8& f, float* dst) {
    _mm256_storeu_ps(dst, f.v);
  }

  [[gnu::target("avx2,f16c")]] static void load8(F8& f, const half* src) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    // Signalling NaN: all-ones exponent, quiet bit clear, payload non-zero.
    const __m128i snan = _mm_andnot_si128(
        _mm_cmpeq_epi16(_mm_and_si128(h, _mm_set1_epi16(0x01FF)),
                        _mm_setzero_si128()),
        _mm_cmpeq_epi16(_mm_and_si128(h, _mm_set1_epi16(0x7E00)),
                        _mm_set1_epi16(0x7C00)));
    const __m256i quiet_bit = _mm256_and_si256(
        _mm256_cvtepi16_epi32(snan), _mm256_set1_epi32(0x00400000));
    f.v = _mm256_andnot_ps(_mm256_castsi256_ps(quiet_bit), _mm256_cvtph_ps(h));
  }

  [[gnu::target("avx2,f16c")]] static void store8(const F8& f, half* dst) {
    const __m256 sign = _mm256_and_ps(f.v, _mm256_set1_ps(-0.0f));
    const __m256 quiet_nan = _mm256_or_ps(
        sign, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FC00000)));
    const __m256 is_nan = _mm256_cmp_ps(f.v, f.v, _CMP_UNORD_Q);
    const __m128i h =
        _mm256_cvtps_ph(_mm256_blendv_ps(f.v, quiet_nan, is_nan),
                        _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), h);
  }
};

// One F8 through: a conversion is a load of one type and a store of the
// other.
template <class T, class From, class To>
void convert8(const From* src, To* dst) {
  typename T::F8 f;
  T::load8(f, src);
  T::store8(f, dst);
}

template <class T>
void widen_step(const half* src, float* dst) {
  for (std::size_t c = 0; c < T::kStep; c += 8) {
    convert8<T>(src + c, dst + c);
  }
}

template <class T>
void narrow_step(const float* src, half* dst) {
  for (std::size_t c = 0; c < T::kStep; c += 8) {
    convert8<T>(src + c, dst + c);
  }
}

template <class T>
void widen(const half* src, float* dst, std::size_t n) {
  const std::size_t full = n - n % T::kStep;
  for (std::size_t i = 0; i < full; i += T::kStep) {
    widen_step<T>(src + i, dst + i);
  }
  if (full == n) return;
  half in[T::kStep] = {};
  float out[T::kStep];
  std::memcpy(static_cast<void*>(in), src + full, (n - full) * sizeof(half));
  widen_step<T>(in, out);
  std::memcpy(dst + full, out, (n - full) * sizeof(float));
}

template <class T>
void narrow(const float* src, half* dst, std::size_t n) {
  const std::size_t full = n - n % T::kStep;
  for (std::size_t i = 0; i < full; i += T::kStep) {
    narrow_step<T>(src + i, dst + i);
  }
  if (full == n) return;
  float in[T::kStep] = {};
  half out[T::kStep];
  std::memcpy(in, src + full, (n - full) * sizeof(float));
  narrow_step<T>(in, out);
  std::memcpy(static_cast<void*>(dst + full), out, (n - full) * sizeof(half));
}

template <class T>
void widen_strided(const half* src, std::size_t stride, std::size_t width,
                   std::size_t rows, float* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < width; c += 8) {
      convert8<T>(src + r * stride + c, dst + r * width + c);
    }
  }
}

void widen_sse2(const half* src, float* dst, std::size_t n) {
  widen<Sse2>(src, dst, n);
}
[[gnu::target("avx2,f16c"), gnu::flatten]] void widen_f16c(
    const half* src, float* dst, std::size_t n) {
  widen<F16c>(src, dst, n);
}

void narrow_sse2(const float* src, half* dst, std::size_t n) {
  narrow<Sse2>(src, dst, n);
}
[[gnu::target("avx2,f16c"), gnu::flatten]] void narrow_f16c(
    const float* src, half* dst, std::size_t n) {
  narrow<F16c>(src, dst, n);
}

void widen_strided_sse2(const half* src, std::size_t stride,
                        std::size_t width, std::size_t rows, float* dst) {
  widen_strided<Sse2>(src, stride, width, rows, dst);
}
[[gnu::target("avx2,f16c"), gnu::flatten]] void widen_strided_f16c(
    const half* src, std::size_t stride, std::size_t width, std::size_t rows,
    float* dst) {
  widen_strided<F16c>(src, stride, width, rows, dst);
}

// Reduction: out[i] = Σ_r srcs[r][offset + i]. Each group of eight
// elements widens every rank's terms and adds them to one accumulator in
// ascending rank order from +0.0f, then narrows once, all in registers;
// the tail runs the same lanes over zero-padded copies.
template <class T, class E>
void sum_body(std::span<const E* const> srcs, std::size_t offset, E* out,
              std::size_t n) {
  typename T::F8 acc, term;
  const std::size_t full = n - n % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    T::zero8(acc);
    for (const E* src : srcs) {
      T::load8(term, src + offset + i);
      T::add8(acc, term);
    }
    T::store8(acc, out + i);
  }
  if (full == n) return;
  const std::size_t tail = (n - full) * sizeof(E);
  E pad[8] = {};
  T::zero8(acc);
  for (const E* src : srcs) {
    std::memcpy(static_cast<void*>(pad), src + offset + full, tail);
    T::load8(term, pad);
    T::add8(acc, term);
  }
  T::store8(acc, pad);
  std::memcpy(static_cast<void*>(out + full), pad, tail);
}

template <class E>
void sum_sse2(std::span<const E* const> srcs, std::size_t offset,
              std::span<E> out) {
  sum_body<Sse2>(srcs, offset, out.data(), out.size());
}
template <class E>
[[gnu::target("avx2,f16c"), gnu::flatten]] void sum_f16c(
    std::span<const E* const> srcs, std::size_t offset, std::span<E> out) {
  sum_body<F16c>(srcs, offset, out.data(), out.size());
}

bool wide() noexcept { return kernel_tier() == KernelTier::kAvx2F16c; }

}  // namespace

void halves_to_floats(std::span<const half> src, std::span<float> dst) {
  ZI_CHECK_MSG(src.size() == dst.size(), "halves_to_floats: "
                                             << src.size() << " halves into "
                                             << dst.size() << " floats");
  (wide() ? widen_f16c : widen_sse2)(src.data(), dst.data(), src.size());
}

void floats_to_halves(std::span<const float> src, std::span<half> dst) {
  ZI_CHECK_MSG(src.size() == dst.size(), "floats_to_halves: "
                                             << src.size() << " floats into "
                                             << dst.size() << " halves");
  (wide() ? narrow_f16c : narrow_sse2)(src.data(), dst.data(), src.size());
}

void halves_to_floats_strided(const half* src, std::size_t stride,
                              std::size_t width, std::size_t rows,
                              float* dst) noexcept {
  (wide() ? widen_strided_f16c : widen_strided_sse2)(src, stride, width, rows,
                                                     dst);
}

void sum_over_ranks(std::span<const half* const> srcs, std::size_t offset,
                    std::span<half> out) {
  (wide() ? sum_f16c<half> : sum_sse2<half>)(srcs, offset, out);
}

void sum_over_ranks(std::span<const float* const> srcs, std::size_t offset,
                    std::span<float> out) {
  (wide() ? sum_f16c<float> : sum_sse2<float>)(srcs, offset, out);
}

bool all_finite(std::span<const half> src) noexcept {
  constexpr std::size_t kLanes = 8;  // halves per 16-byte vector
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
