// Runs a kernel oracle test once per kernel tier (common/kernel_tier.hpp):
// the SSE2 tier, forced through the test seam, and the AVX2+F16C tier,
// skipped on a CPU without it. Both must return the oracle's bits.
//
//   using Gemm = KernelTierTest;
//   ZI_KERNEL_TIERS(Gemm);
//   TEST_P(Gemm, Something) { ... }   // Tiers/Gemm.Something/Sse2, /Avx2F16c
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

#include "common/kernel_tier.hpp"

namespace zi {

class KernelTierTest : public ::testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelTier::kAvx2F16c && !cpu_has_avx2_f16c()) {
      GTEST_SKIP() << "this CPU lacks AVX2 or F16C, so the wide kernel tier "
                      "never runs here";
    }
    if (GetParam() == KernelTier::kSse2) sse2_.emplace();
    ASSERT_EQ(kernel_tier(), GetParam());
  }

 private:
  std::optional<test_seam::ScopedSse2Tier> sse2_;
};

inline void PrintTo(KernelTier tier, std::ostream* os) {
  *os << kernel_tier_name(tier);
}

inline std::string kernel_tier_test_name(
    const ::testing::TestParamInfo<KernelTier>& info) {
  return info.param == KernelTier::kSse2 ? "Sse2" : "Avx2F16c";
}

}  // namespace zi

#define ZI_KERNEL_TIERS(suite)                                          \
  INSTANTIATE_TEST_SUITE_P(                                             \
      Tiers, suite,                                                     \
      ::testing::Values(::zi::KernelTier::kSse2,                        \
                        ::zi::KernelTier::kAvx2F16c),                   \
      ::zi::kernel_tier_test_name)
