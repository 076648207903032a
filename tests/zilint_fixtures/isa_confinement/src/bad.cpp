// Fixture: isa-confinement must fire on ISA-specific code outside the
// kernel files that own a vector tier.
#include <immintrin.h>  // finding: intrinsics header

#pragma GCC target("avx2")  // finding: #pragma GCC target

namespace fixture {

[[gnu::target("avx2")]] void wide() {}  // finding: target attribute

float first(const float* p) {
  return _mm_cvtss_f32(_mm_loadu_ps(p));  // finding: SIMD intrinsic
}

}  // namespace fixture
