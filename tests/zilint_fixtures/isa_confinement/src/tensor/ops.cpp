// Fixture: a kernel file that owns a vector tier may name its ISA.
#include <immintrin.h>

namespace fixture {

[[gnu::target("avx2,f16c")]] void tile(float* p) {
  _mm256_storeu_ps(p, _mm256_setzero_ps());
}

}  // namespace fixture
