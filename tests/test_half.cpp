// Unit + property tests for software fp16 / bf16, and the bulk conversions
// against the scalar routines (the exhaustive 2^32 f32→f16 sweep is
// test_half_exhaustive.cpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/half.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "kernel_tiers.hpp"
#include "scalar_oracles.hpp"

namespace zi {
namespace {

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half(0.0f).bits(), 0x0000);
  EXPECT_EQ(half(-0.0f).bits(), 0x8000);
  EXPECT_EQ(half(1.0f).bits(), 0x3C00);
  EXPECT_EQ(half(-2.0f).bits(), 0xC000);
  EXPECT_EQ(half(0.5f).bits(), 0x3800);
  EXPECT_EQ(half(65504.0f).bits(), 0x7BFF);  // max finite
  EXPECT_EQ(half(6.103515625e-5f).bits(), 0x0400);  // min normal 2^-14
}

TEST(Half, RoundtripExactValues) {
  // Every value with <= 10 mantissa bits in the half range is exact.
  for (float v : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, 0.25f, -0.125f, 3.5f,
                  1000.0f, -65504.0f}) {
    EXPECT_EQ(half(v).to_float(), v) << v;
  }
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half(65520.0f).isinf());  // rounds up past max finite
  EXPECT_TRUE(half(1e10f).isinf());
  EXPECT_TRUE(half(-1e10f).isinf());
  EXPECT_LT(half(-1e10f).to_float(), 0.0f);
  // 65504 + epsilon below the rounding threshold stays finite.
  EXPECT_TRUE(half(65503.0f).isfinite());
}

TEST(Half, UnderflowAndSubnormals) {
  // Smallest positive subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(half(tiny).bits(), 0x0001);
  EXPECT_EQ(half(tiny).to_float(), tiny);
  // Below half of the smallest subnormal: rounds to zero.
  EXPECT_EQ(half(std::ldexp(1.0f, -26)).bits(), 0x0000);
  // Negative zero sign preserved on underflow.
  EXPECT_EQ(half(-std::ldexp(1.0f, -26)).bits(), 0x8000);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10):
  // ties to even → 1.0 (mantissa even).
  EXPECT_EQ(half(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3C00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even →
  // 1 + 2^-9 (mantissa 0b10).
  EXPECT_EQ(half(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits(), 0x3C02);
  // Slightly above the halfway point rounds up.
  EXPECT_EQ(half(1.0f + std::ldexp(1.0f, -11) * 1.001f).bits(), 0x3C01);
}

TEST(Half, NanPropagation) {
  const half h(std::nanf(""));
  EXPECT_TRUE(h.isnan());
  EXPECT_FALSE(h.isfinite());
  EXPECT_FALSE(h.isinf());
  EXPECT_TRUE(std::isnan(h.to_float()));
}

TEST(Half, Arithmetic) {
  EXPECT_EQ((half(1.5f) + half(2.5f)).to_float(), 4.0f);
  EXPECT_EQ((half(3.0f) * half(2.0f)).to_float(), 6.0f);
  EXPECT_EQ((half(7.0f) - half(3.0f)).to_float(), 4.0f);
  EXPECT_EQ((half(8.0f) / half(2.0f)).to_float(), 4.0f);
  EXPECT_EQ((-half(5.0f)).to_float(), -5.0f);
  EXPECT_LT(half(1.0f), half(2.0f));
  EXPECT_GE(half(2.0f), half(2.0f));
}

// Property: decode(encode(decode(bits))) is the identity on all 65536 bit
// patterns (finite and special values alike, modulo NaN payload squashing).
TEST(HalfProperty, BitExactRoundtripAllPatterns) {
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const half h = half::from_bits(bits);
    const float f = h.to_float();
    const half h2(f);
    if (h.isnan()) {
      EXPECT_TRUE(h2.isnan()) << "bits=" << b;
    } else {
      EXPECT_EQ(h2.bits(), bits) << "bits=" << b;
    }
  }
}

// Property: conversion error is bounded by half an ulp across the normal
// range (relative error <= 2^-11).
TEST(HalfProperty, RelativeErrorBound) {
  for (int i = 0; i < 20000; ++i) {
    const float v = std::ldexp(1.0f + (i % 1000) / 1000.0f, (i % 29) - 14);
    const float back = half(v).to_float();
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-20f)
        << v;
  }
}

// ---------------------------------------------------------------------------
// The kernel tier.

// The CPU's feature flags as the kernel reports them (/proc/cpuinfo), or
// empty where that file does not exist.
std::string cpuinfo_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) return line.substr(line.find(':') + 1);
  }
  return {};
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream words(flags);
  std::string w;
  while (words >> w) {
    if (w == flag) return true;
  }
  return false;
}

TEST(KernelTier, PickedTierMatchesTheCpu) {
  const KernelTier tier = kernel_tier();
  std::printf("kernel tier: %s\n", kernel_tier_name(tier));
  const bool wide = tier == KernelTier::kAvx2F16c;
  EXPECT_EQ(wide, __builtin_cpu_supports("avx2") &&
                      __builtin_cpu_supports("f16c"));
  const std::string flags = cpuinfo_flags();
  if (flags.empty()) GTEST_SKIP() << "no /proc/cpuinfo to cross-check";
  EXPECT_EQ(wide, has_flag(flags, "avx2") && has_flag(flags, "f16c"))
      << "cpuinfo flags:" << flags;
}

TEST(KernelTier, Sse2SeamNestsAndRestores) {
  const KernelTier picked = kernel_tier();
  {
    test_seam::ScopedSse2Tier outer;
    EXPECT_EQ(kernel_tier(), KernelTier::kSse2);
    {
      test_seam::ScopedSse2Tier inner;
      EXPECT_EQ(kernel_tier(), KernelTier::kSse2);
    }
    EXPECT_EQ(kernel_tier(), KernelTier::kSse2);
  }
  EXPECT_EQ(kernel_tier(), picked);
}

// ---------------------------------------------------------------------------
// Bulk conversions ≡ the scalar routines, bit for bit, in every tier.

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }
float float_of(std::uint32_t u) { return std::bit_cast<float>(u); }

using HalfBulk = KernelTierTest;
ZI_KERNEL_TIERS(HalfBulk);

TEST_P(HalfBulk, WidensAllHalves) {
  std::vector<half> h(65536);
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    h[b] = half::from_bits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> f(h.size());
  halves_to_floats(h, f);
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    ASSERT_EQ(bits_of(f[b]),
              bits_of(half_bits_to_float(static_cast<std::uint16_t>(b))))
        << "half bits 0x" << std::hex << b;
  }
}

// Floats that reach every branch of float_to_half_bits: each exponent
// with mantissas that put a round-to-even tie (and its neighbours) at every
// bit position, so the normal and every subnormal rounding shift see ties
// with even and odd kept bits; the subnormal, overflow and 65520 edges;
// NaN payloads, ±inf and ±0.
std::vector<float> stratified_floats() {
  std::vector<std::uint32_t> mants = {0, 0x7FFFFF, 0x400000, 0x3FFFFF};
  for (int k = 0; k < 23; ++k) {
    const std::uint32_t bit = 1u << k;
    mants.push_back(bit);
    mants.push_back(bit - 1);
    mants.push_back(bit + 1);
    for (int j = k + 1; j < 23; ++j) mants.push_back(bit | (1u << j));
  }
  Rng rng(3, 5);
  std::vector<float> out;
  for (std::uint32_t e = 0; e < 256; ++e) {
    for (std::uint32_t m : mants) {
      out.push_back(float_of((e << 23) | m));
    }
    for (int r = 0; r < 16; ++r) {
      out.push_back(float_of((e << 23) | (rng.next_u64() & 0x7FFFFF)));
    }
  }
  const float edges[] = {65504.0f, 65505.0f, 65519.0f, 65520.0f, 65521.0f,
                         std::nextafter(65520.0f, 0.0f), 65536.0f,
                         std::ldexp(1.0f, -14), std::ldexp(1.0f, -24),
                         std::ldexp(1.0f, -25), std::ldexp(1.5f, -25),
                         std::ldexp(1.0f, -26),
                         std::nextafter(std::ldexp(1.0f, -14), 0.0f),
                         std::ldexp(2047.0f, -25), std::ldexp(2047.5f, -25)};
  for (const float x : edges) out.push_back(x);
  for (const std::uint32_t nan :
       {0x7F800001u, 0x7FC00000u, 0x7FBFFFFFu, 0x7FFFFFFFu, 0x7F802000u,
        0x7FA00000u}) {
    out.push_back(float_of(nan));
  }
  out.push_back(INFINITY);
  out.push_back(0.0f);
  const std::size_t positive = out.size();
  for (std::size_t i = 0; i < positive; ++i) out.push_back(-out[i]);
  return out;
}

// F16C sets the quiet bit of a signalling NaN; the scalar routine keeps
// the payload as it is. Every half, widened in place at every offset of a
// 16-element strip and through the strided widen, must keep it.
TEST_P(HalfBulk, WidensEverySignallingNaNWithItsPayload) {
  std::vector<half> h;
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    h.push_back(half::from_bits(static_cast<std::uint16_t>(b)));
  }
  int snans = 0;
  for (const half x : h) snans += x.isnan() && (x.bits() & 0x0200) == 0;
  ASSERT_EQ(snans, 2 * 511);  // both signs, payloads 1..0x1FF
  for (std::size_t shift = 0; shift < 16; ++shift) {
    std::vector<half> src(shift, half(1.0f));
    src.insert(src.end(), h.begin(), h.end());
    std::vector<float> f(src.size());
    halves_to_floats(src, f);
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
      ASSERT_EQ(bits_of(f[shift + b]),
                bits_of(half_bits_to_float(static_cast<std::uint16_t>(b))))
          << "half bits 0x" << std::hex << b << " at offset " << std::dec
          << shift;
    }
  }
  for (const std::size_t width : {8u, 16u}) {
    std::vector<float> f(h.size());
    halves_to_floats_strided(h.data(), width, width, h.size() / width,
                             f.data());
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
      ASSERT_EQ(bits_of(f[b]),
                bits_of(half_bits_to_float(static_cast<std::uint16_t>(b))))
          << "strided width " << width << ", half bits 0x" << std::hex << b;
    }
  }
}

TEST_P(HalfBulk, NarrowsStratifiedFloats) {
  const std::vector<float> f = stratified_floats();
  std::vector<half> h(f.size());
  floats_to_halves(f, h);
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(h[i].bits(), float_to_half_bits(f[i]))
        << "float bits 0x" << std::hex << bits_of(f[i]);
  }
}

// Every tail length 0-31 from every start offset 0-15, so two steps of the
// 16-wide loop and all of its tails: the kernel writes exactly n elements,
// each right, and reads nothing outside its span (the ASan lane checks the
// reads).
TEST_P(HalfBulk, TailsAndUnalignedStartsBothDirections) {
  const std::vector<float> f = stratified_floats();
  const half kGuard = half::from_bits(0x5A5A);
  const float kGuardF = -12345.0f;
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t n = 0; n < 32; ++n) {
      const std::size_t base = (start * 131 + n * 977) % (f.size() - 32);
      std::vector<float> src(f.begin() + static_cast<std::ptrdiff_t>(base),
                             f.begin() + static_cast<std::ptrdiff_t>(base + n));
      std::vector<half> h(start + n + 1, kGuard);
      floats_to_halves(src, std::span<half>(h).subspan(start, n));
      for (std::size_t i = 0; i < h.size(); ++i) {
        const bool inside = i >= start && i < start + n;
        ASSERT_EQ(h[i].bits(), inside ? float_to_half_bits(src[i - start])
                                      : kGuard.bits())
            << "start=" << start << " n=" << n << " i=" << i;
      }
      std::vector<float> back(start + n + 1, kGuardF);
      halves_to_floats(std::span<const half>(h).subspan(start, n),
                       std::span<float>(back).subspan(start, n));
      for (std::size_t i = 0; i < back.size(); ++i) {
        const bool inside = i >= start && i < start + n;
        ASSERT_EQ(bits_of(back[i]),
                  inside ? bits_of(half_bits_to_float(h[i].bits()))
                         : bits_of(kGuardF))
            << "start=" << start << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(HalfBulk, SizeMismatchThrows) {
  std::vector<float> f(4);
  std::vector<half> h(3);
  EXPECT_ANY_THROW(floats_to_halves(f, h));
  EXPECT_ANY_THROW(halves_to_floats(h, f));
}

TEST_P(HalfBulk, AllFiniteFindsEveryInfAndNan) {
  for (std::size_t n = 0; n < 40; ++n) {
    std::vector<half> h(n, half(1.0f));
    EXPECT_TRUE(all_finite(h)) << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::uint16_t bad : {0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFFFF}) {
        h[i] = half::from_bits(bad);
        EXPECT_FALSE(all_finite(h)) << "n=" << n << " i=" << i;
      }
      h[i] = half::max();
    }
    EXPECT_TRUE(all_finite(h)) << n;
  }
}

// ---------------------------------------------------------------------------
// The rank-order sum ≡ its per-element loop, bit for bit, in every tier.

using RankSum = KernelTierTest;
ZI_KERNEL_TIERS(RankSum);

// Terms that reach every case of the sum whose bits IEEE 754 fixes: ±0 (an
// all −0.0 column must sum to +0.0), subnormals, values that overflow when
// added, ±inf (inf − inf gives the default NaN) and NaNs with payloads and
// either sign. A column holds at most one NaN, and then no infinity: which
// of two NaN operands an add returns is not fixed, and the compiler may
// order a commutative add's operands either way, in the kernel and in the
// per-element loop alike.
struct SpecialBits {
  std::vector<std::uint32_t> plain, nans;
};

template <typename T>
SpecialBits special_bits() {
  if constexpr (std::is_same_v<T, half>) {
    return {{0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x0400, 0x7BFF,
             0xFBFF, 0x7C00, 0xFC00},
            {0x7C01, 0xFC01, 0x7E00, 0xFE00, 0x7DFF, 0x7FFF, 0xFE01}};
  } else {
    return {{0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
             0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000},
            {0x7F800001, 0xFF800001, 0x7FC00000, 0xFFC00000, 0x7FA00005,
             0xFFBFFFFF}};
  }
}

template <typename T>
T term_of(std::uint32_t bits) {
  if constexpr (std::is_same_v<T, half>) {
    return half::from_bits(static_cast<std::uint16_t>(bits));
  } else {
    return float_of(bits);
  }
}

template <typename T>
std::uint32_t term_bits(T v) {
  if constexpr (std::is_same_v<T, half>) {
    return v.bits();
  } else {
    return bits_of(v);
  }
}

// 1–8 ranks; every length 0–55, so every tail 0–7 after zero to six full
// eight-element groups; a start offset that leaves the terms unaligned.
// Each column is all −0.0, special terms, one NaN among ordinary values, or
// ordinary values.
template <typename T>
void check_rank_sum() {
  const SpecialBits special = special_bits<T>();
  Rng rng(11, sizeof(T));
  auto pick = [&](const std::vector<std::uint32_t>& from) {
    return term_of<T>(from[rng.next_below(from.size())]);
  };
  for (std::size_t ranks = 1; ranks <= 8; ++ranks) {
    for (std::size_t n = 0; n < 56; ++n) {
      const std::size_t offset = 1 + n % 5;
      std::vector<std::vector<T>> peers(ranks,
                                        std::vector<T>(offset + n, T(0.0f)));
      for (std::size_t i = offset; i < offset + n; ++i) {
        const std::uint64_t kind = rng.next_below(4);
        const std::uint64_t nan_rank = rng.next_below(ranks);
        for (std::size_t r = 0; r < ranks; ++r) {
          T& term = peers[r][i];
          if (kind == 0) {
            term = T(-0.0f);
          } else if (kind == 1) {
            term = pick(special.plain);
          } else if (kind == 2 && r == nan_rank) {
            term = pick(special.nans);
          } else {
            term = T(static_cast<float>(rng.next_normal() * 4.0));
          }
        }
      }
      std::vector<const T*> srcs;
      for (const auto& peer : peers) srcs.push_back(peer.data());
      std::vector<T> got(n);
      sum_over_ranks(srcs, offset, std::span<T>(got));
      const std::vector<T> want = oracle::rank_order_sum(peers, offset, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(term_bits(got[i]), term_bits(want[i]))
            << ranks << " ranks, " << n << " elements, element " << i;
      }
    }
  }
}

TEST_P(RankSum, HalvesBitIdenticalToPerElementLoop) { check_rank_sum<half>(); }

TEST_P(RankSum, FloatsBitIdenticalToPerElementLoop) {
  check_rank_sum<float>();
}

TEST(Bf16, Basics) {
  EXPECT_EQ(bfloat16(1.0f).to_float(), 1.0f);
  EXPECT_EQ(bfloat16(-2.0f).to_float(), -2.0f);
  // bf16 has 7 mantissa bits: 1 + 2^-7 is representable, 1 + 2^-8 ties to
  // even (1.0).
  EXPECT_EQ(bfloat16(1.0f + std::ldexp(1.0f, -7)).to_float(),
            1.0f + std::ldexp(1.0f, -7));
  EXPECT_EQ(bfloat16(1.0f + std::ldexp(1.0f, -8)).to_float(), 1.0f);
  // Full fp32 exponent range survives.
  EXPECT_EQ(bfloat16(1e30f).to_float(), bfloat16(1e30f).to_float());
  EXPECT_NEAR(bfloat16(1e30f).to_float(), 1e30f, 1e28f);
}

}  // namespace
}  // namespace zi
