#include "common/kernel_tier.hpp"

#include <atomic>

namespace zi {

namespace {

// Live ScopedSse2Tier instances.
std::atomic<int> g_forced_baseline{0};

bool detect_avx2_f16c() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
}

}  // namespace

bool cpu_has_avx2_f16c() noexcept {
  static const bool has = detect_avx2_f16c();
  return has;
}

KernelTier kernel_tier() noexcept {
  return cpu_has_avx2_f16c() &&
                 g_forced_baseline.load(std::memory_order_relaxed) == 0
             ? KernelTier::kAvx2F16c
             : KernelTier::kSse2;
}

const char* kernel_tier_name(KernelTier tier) noexcept {
  return tier == KernelTier::kAvx2F16c ? "avx2+f16c" : "sse2";
}

namespace test_seam {

ScopedSse2Tier::ScopedSse2Tier() noexcept {
  g_forced_baseline.fetch_add(1, std::memory_order_relaxed);
}

ScopedSse2Tier::~ScopedSse2Tier() {
  g_forced_baseline.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace test_seam
}  // namespace zi
