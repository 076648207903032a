// Which vector tier the numeric kernels run.
//
// The four vectorised kernels (the GEMM family in tensor/ops.cpp, the bulk
// fp16 conversions and rank-order sums in common/half.cpp, fused Adam in
// optim/adam.cpp) each have two tiers built from one template body: 16-byte
// SSE2 vectors, the x86-64 baseline every build targets, and 32-byte
// vectors with F16C conversions, compiled into `target("avx2,f16c")`
// functions. The wide tier runs when the CPU has AVX2 and F16C, checked
// once per process. Both tiers return the same bits (DESIGN.md §2).
#pragma once

namespace zi {

enum class KernelTier {
  kSse2,      ///< 16-byte vectors, integer fp16 conversions
  kAvx2F16c,  ///< 32-byte vectors, F16C conversions
};

/// True if this CPU has AVX2 and F16C (checked once per process).
bool cpu_has_avx2_f16c() noexcept;

/// The tier the kernels run: the wide one when the CPU has it.
KernelTier kernel_tier() noexcept;

/// "sse2" or "avx2+f16c".
const char* kernel_tier_name(KernelTier tier) noexcept;

namespace test_seam {

/// Test seam: while an instance lives, every kernel runs the SSE2 tier, so
/// the oracle tests can hold both tiers to the same bits. Nests. Not for
/// production code.
class ScopedSse2Tier {
 public:
  ScopedSse2Tier() noexcept;
  ~ScopedSse2Tier();
  ScopedSse2Tier(const ScopedSse2Tier&) = delete;
  ScopedSse2Tier& operator=(const ScopedSse2Tier&) = delete;
};

}  // namespace test_seam
}  // namespace zi
