// Fixture: generic vectors, the CPU-feature check and mentions of
// _mm256_add_ps or target("avx2") in comments and strings never trip
// isa-confinement.
namespace fixture {

using V4 = float __attribute__((vector_size(16)));

const char* kDoc = "wide tier: target(\"avx2,f16c\") and _mm256_cvtph_ps";

bool wide() { return __builtin_cpu_supports("avx2"); }

V4 twice(V4 v) { return v + v; }

int target(int x) { return x; }  // a function named target is fine

}  // namespace fixture
