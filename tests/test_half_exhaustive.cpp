// floats_to_halves against float_to_half_bits over all 2^32 float bit
// patterns (every NaN payload, subnormal and tie included), in each kernel
// tier. About a quarter of a minute per tier at -O2, so it runs under the
// `kernels` label and in the full suite rather than the fast lane.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "kernel_tiers.hpp"

namespace zi {
namespace {

using HalfExhaustive = KernelTierTest;
ZI_KERNEL_TIERS(HalfExhaustive);

TEST_P(HalfExhaustive, NarrowsEveryFloat) {
  constexpr std::uint64_t kBlock = 1u << 16;
  std::vector<float> f(kBlock);
  std::vector<half> h(kBlock);
  std::uint64_t mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32);
       base += kBlock) {
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      f[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    floats_to_halves(f, h);
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      const std::uint16_t want = float_to_half_bits(f[i]);
      if (h[i].bits() != want) {
        if (mismatches++ < 8) {
          ADD_FAILURE() << "float bits 0x" << std::hex << base + i
                        << ": got 0x" << h[i].bits() << ", want 0x" << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace zi
