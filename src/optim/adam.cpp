#include "optim/adam.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/kernel_tier.hpp"

#include <immintrin.h>

namespace zi {

namespace {

// Generic vectors: 16 bytes (SSE2, the x86-64 baseline) and 32 bytes (the
// AVX2 tier, common/kernel_tier.hpp). One template body runs both.
using V4 = float __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));

// Gradient elements widened per block: the fp32 staging stays in L1.
constexpr std::size_t kBlock = 512;

// Vector loads and stores go through references, so no 32-byte vector is
// passed by value between functions built for the baseline ABI.
template <class V>
void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// sqrtps / vsqrtps: correctly rounded per lane, as std::sqrt. Generic
// vectors have no square root, and a per-lane std::sqrt stays scalar.
void sqrt_lanes(V4& x) { x = _mm_sqrt_ps(x); }
[[gnu::target("avx2,f16c")]] void sqrt_lanes(V8& x) { x = _mm256_sqrt_ps(x); }

// The step's scalars. The vector code below broadcasts each one to every
// lane where it meets a vector.
struct AdamScalars {
  float lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps, wd;
  float inv_scale, clip_coef, bc1, bc2;
  bool l2;         // weight decay folded into the gradient
  bool decoupled;  // weight decay added to the update (AdamW)
};

// One vector of elements of the update, in the scalar loop's operation
// order:
//   g = g·inv_scale·clip_coef [+ wd·w]
//   m = β1·m + (1−β1)·g;  v = β2·v + (1−β2)·g·g
//   u = (m/bc1) / (√(v/bc2) + eps) [+ wd·w];  w = w − lr·u
template <class V>
void adam_lanes(const AdamScalars& k, const float* grad, float* master,
                float* momentum, float* variance) {
  V w, g, m, v;
  load(w, master);
  load(g, grad);
  load(m, momentum);
  load(v, variance);
  g = g * k.inv_scale * k.clip_coef;
  if (k.l2) g += k.wd * w;
  m = k.beta1 * m + k.one_minus_beta1 * g;
  v = k.beta2 * v + k.one_minus_beta2 * g * g;
  V root = v / k.bc2;
  sqrt_lanes(root);
  V update = (m / k.bc1) / (root + k.eps);
  if (k.decoupled) update += k.wd * w;
  store(momentum, m);
  store(variance, v);
  store(master, w - k.lr * update);
}

// The step's operands, checked.
struct AdamSpans {
  std::span<float> master, momentum, variance;
  std::span<const half> grad;
  std::span<half> updated;
};

template <class V>
void adam_body(const AdamScalars& k, const AdamSpans& s) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  const std::size_t n = s.master.size();
  float g[kBlock];
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    const std::size_t len = std::min(kBlock, n - lo);
    halves_to_floats(s.grad.subspan(lo, len), {g, len});
    float* w = s.master.data() + lo;
    float* m = s.momentum.data() + lo;
    float* v = s.variance.data() + lo;
    const std::size_t full = len - len % kLanes;
    for (std::size_t i = 0; i < full; i += kLanes) {
      adam_lanes<V>(k, g + i, w + i, m + i, v + i);
    }
    if (full < len) {
      // Tail: the same lanes over a zero-padded copy.
      const std::size_t bytes = (len - full) * sizeof(float);
      float tw[kLanes] = {}, tm[kLanes] = {}, tv[kLanes] = {};
      float tg[kLanes] = {};
      std::memcpy(tg, g + full, bytes);
      std::memcpy(tw, w + full, bytes);
      std::memcpy(tm, m + full, bytes);
      std::memcpy(tv, v + full, bytes);
      adam_lanes<V>(k, tg, tw, tm, tv);
      std::memcpy(w + full, tw, bytes);
      std::memcpy(m + full, tm, bytes);
      std::memcpy(v + full, tv, bytes);
    }
    floats_to_halves({w, len}, s.updated.subspan(lo, len));
  }
}

// The two tiers. The 32-byte body is built only here, inside a target
// function with internal linkage, with everything it calls inlined.
void adam_sse2(const AdamScalars& k, const AdamSpans& s) {
  adam_body<V4>(k, s);
}

[[gnu::target("avx2,f16c"), gnu::flatten]] void adam_avx2(
    const AdamScalars& k, const AdamSpans& s) {
  adam_body<V8>(k, s);
}

}  // namespace

void fused_adam_step(const AdamConfig& config, std::int64_t step,
                     std::span<float> master, std::span<float> momentum,
                     std::span<float> variance, std::span<const half> grad,
                     std::span<half> updated, float grad_scale,
                     float clip_coef) {
  ZI_CHECK(step >= 1);
  const std::size_t n = master.size();
  ZI_CHECK_MSG(momentum.size() == n && variance.size() == n &&
                   grad.size() == n && updated.size() == n,
               "fused_adam_step: master " << n << ", momentum "
                                          << momentum.size() << ", variance "
                                          << variance.size() << ", grad "
                                          << grad.size() << ", updated "
                                          << updated.size());
  const float bc1 = 1.0f - std::pow(config.beta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(config.beta2, static_cast<float>(step));
  const float wd = config.weight_decay;
  const AdamScalars k{
      .lr = config.lr,
      .beta1 = config.beta1,
      .beta2 = config.beta2,
      .one_minus_beta1 = 1.0f - config.beta1,
      .one_minus_beta2 = 1.0f - config.beta2,
      .eps = config.eps,
      .wd = wd,
      .inv_scale = grad_scale == 1.0f ? 1.0f : 1.0f / grad_scale,
      .clip_coef = clip_coef,
      .bc1 = bc1,
      .bc2 = bc2,
      .l2 = wd != 0.0f && !config.decoupled_weight_decay,
      .decoupled = wd != 0.0f && config.decoupled_weight_decay,
  };
  const AdamSpans s{master, momentum, variance, grad, updated};
  if (kernel_tier() == KernelTier::kAvx2F16c) {
    adam_avx2(k, s);
  } else {
    adam_sse2(k, s);
  }
}

float clip_coefficient(double global_sqnorm, float max_norm) {
  if (max_norm <= 0.0f) return 1.0f;
  const double norm = std::sqrt(global_sqnorm);
  if (norm <= static_cast<double>(max_norm)) return 1.0f;
  return static_cast<float>(static_cast<double>(max_norm) / (norm + 1e-12));
}

}  // namespace zi
