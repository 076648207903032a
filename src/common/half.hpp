// Software IEEE 754 binary16 ("half") and bfloat16 types.
//
// The paper trains in mixed precision: parameters and gradients in fp16,
// optimizer state in fp32 (Sec. 2, "Adam Optimizer and Mixed Precision
// Training"). With no GPU available we implement binary16 in software with
// round-to-nearest-even conversions, which is bit-compatible with the
// storage format CUDA kernels use. Arithmetic is performed by converting
// through float, matching how tensor cores accumulate in fp32.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

namespace zi {

/// Convert a float to IEEE binary16 bits with round-to-nearest-even.
std::uint16_t float_to_half_bits(float f) noexcept;

/// Convert IEEE binary16 bits to float (exact).
float half_bits_to_float(std::uint16_t h) noexcept;

/// IEEE 754 binary16 value type. 2 bytes, trivially copyable; safe to
/// memcpy into I/O buffers and across the collectives layer.
class half {
 public:
  half() noexcept = default;
  explicit half(float f) noexcept : bits_(float_to_half_bits(f)) {}

  /// Reinterpret raw binary16 bits as a half.
  static half from_bits(std::uint16_t bits) noexcept {
    half h;
    h.bits_ = bits;
    return h;
  }

  std::uint16_t bits() const noexcept { return bits_; }
  float to_float() const noexcept { return half_bits_to_float(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  half& operator+=(half o) noexcept { return *this = half(to_float() + o.to_float()); }
  half& operator-=(half o) noexcept { return *this = half(to_float() - o.to_float()); }
  half& operator*=(half o) noexcept { return *this = half(to_float() * o.to_float()); }
  half& operator/=(half o) noexcept { return *this = half(to_float() / o.to_float()); }

  friend half operator+(half a, half b) noexcept { return half(a.to_float() + b.to_float()); }
  friend half operator-(half a, half b) noexcept { return half(a.to_float() - b.to_float()); }
  friend half operator*(half a, half b) noexcept { return half(a.to_float() * b.to_float()); }
  friend half operator/(half a, half b) noexcept { return half(a.to_float() / b.to_float()); }
  friend half operator-(half a) noexcept { return half(-a.to_float()); }

  friend bool operator==(half a, half b) noexcept { return a.to_float() == b.to_float(); }
  friend bool operator!=(half a, half b) noexcept { return !(a == b); }
  friend bool operator<(half a, half b) noexcept { return a.to_float() < b.to_float(); }
  friend bool operator>(half a, half b) noexcept { return a.to_float() > b.to_float(); }
  friend bool operator<=(half a, half b) noexcept { return a.to_float() <= b.to_float(); }
  friend bool operator>=(half a, half b) noexcept { return a.to_float() >= b.to_float(); }

  bool isfinite() const noexcept { return (bits_ & 0x7C00u) != 0x7C00u; }
  bool isnan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x3FFu) != 0;
  }
  bool isinf() const noexcept { return (bits_ & 0x7FFFu) == 0x7C00u; }

  /// Largest finite binary16 value (65504).
  static half max() noexcept { return from_bits(0x7BFF); }
  /// Smallest positive normal binary16 value (2^-14).
  static half min_normal() noexcept { return from_bits(0x0400); }
  static half infinity() noexcept { return from_bits(0x7C00); }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be exactly 2 bytes");

std::ostream& operator<<(std::ostream& os, half h);

// Bulk conversions: the one path every fp16 array crosses (kernel operand
// widening, gradient pack, reduction sums, optimizer). Branchless, eight
// elements at a time, tails included, in the kernel tier the CPU picks
// (common/kernel_tier.hpp): integer ops on 16-byte vectors, or F16C with a
// NaN fix-up. Every tier returns exactly the bits of half_bits_to_float /
// float_to_half_bits for every input: NaN payloads, ±0, subnormals and
// round-to-even ties.

/// dst[i] = float(src[i]).
void halves_to_floats(std::span<const half> src, std::span<float> dst);
/// The same conversion over a strided strip: row r's `width` halves, at
/// src + r * stride, widen into dst[r * width, (r + 1) * width). `width` is
/// a multiple of 8. This is how the GEMM widens an fp16 B operand while
/// packing it (tensor/ops.cpp).
void halves_to_floats_strided(const half* src, std::size_t stride,
                              std::size_t width, std::size_t rows,
                              float* dst) noexcept;
/// dst[i] = half(src[i]), round-to-nearest-even.
void floats_to_halves(std::span<const float> src, std::span<half> dst);
/// The reduction behind reduce_scatter_sum and allreduce_sum:
/// out[i] = Σ_r srcs[r][offset + i], each term widened to float and added
/// in ascending r starting from +0.0f (so an all −0.0 sum is +0.0), then
/// narrowed once with round-to-nearest-even. Returns exactly the bits of
/// that per-element loop, in either kernel tier.
void sum_over_ranks(std::span<const half* const> srcs, std::size_t offset,
                    std::span<half> out);
/// The same reduction over fp32 terms, with no narrowing.
void sum_over_ranks(std::span<const float* const> srcs, std::size_t offset,
                    std::span<float> out);
/// True if every element is finite (no Inf, no NaN).
bool all_finite(std::span<const half> src) noexcept;

/// bfloat16: float truncated to its top 16 bits (round-to-nearest-even).
/// Included for completeness of the dtype system; the paper's recipe is fp16.
class bfloat16 {
 public:
  bfloat16() noexcept = default;
  explicit bfloat16(float f) noexcept;

  static bfloat16 from_bits(std::uint16_t bits) noexcept {
    bfloat16 b;
    b.bits_ = bits;
    return b;
  }

  std::uint16_t bits() const noexcept { return bits_; }
  float to_float() const noexcept;
  explicit operator float() const noexcept { return to_float(); }

  friend bool operator==(bfloat16 a, bfloat16 b) noexcept {
    return a.to_float() == b.to_float();
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(bfloat16) == 2, "bfloat16 must be exactly 2 bytes");

}  // namespace zi
