#include "optim/adam.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"

#include <emmintrin.h>

namespace zi {

namespace {

// Generic 16-byte vectors: SSE2 at the x86-64 baseline ISA.
using V4 = float __attribute__((vector_size(16)));

constexpr std::size_t kLanes = 4;
// Gradient elements widened per block: the fp32 staging stays in L1.
constexpr std::size_t kBlock = 512;

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

V4 splat(float x) { return V4{x, x, x, x}; }

// SSE2's sqrtps: correctly rounded per lane, as std::sqrt. Generic vectors
// have no square root, and a per-lane std::sqrt stays scalar.
V4 sqrt4(V4 x) { return _mm_sqrt_ps(x); }

struct AdamLanes {
  V4 lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps, wd;
  V4 inv_scale, clip_coef, bc1, bc2;
  bool l2;         // weight decay folded into the gradient
  bool decoupled;  // weight decay added to the update (AdamW)
};

// Four elements of the update, in the scalar loop's operation order:
//   g = g·inv_scale·clip_coef [+ wd·w]
//   m = β1·m + (1−β1)·g;  v = β2·v + (1−β2)·g·g
//   u = (m/bc1) / (√(v/bc2) + eps) [+ wd·w];  w = w − lr·u
void adam4(const AdamLanes& k, const float* grad, float* master,
           float* momentum, float* variance) {
  const V4 w = load4(master);
  V4 g = load4(grad) * k.inv_scale * k.clip_coef;
  if (k.l2) g += k.wd * w;
  const V4 m = k.beta1 * load4(momentum) + k.one_minus_beta1 * g;
  const V4 v = k.beta2 * load4(variance) + k.one_minus_beta2 * g * g;
  V4 update = (m / k.bc1) / (sqrt4(v / k.bc2) + k.eps);
  if (k.decoupled) update += k.wd * w;
  store4(momentum, m);
  store4(variance, v);
  store4(master, w - k.lr * update);
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
  const AdamLanes k{
      .lr = splat(config.lr),
      .beta1 = splat(config.beta1),
      .beta2 = splat(config.beta2),
      .one_minus_beta1 = splat(1.0f - config.beta1),
      .one_minus_beta2 = splat(1.0f - config.beta2),
      .eps = splat(config.eps),
      .wd = splat(config.weight_decay),
      .inv_scale = splat(grad_scale == 1.0f ? 1.0f : 1.0f / grad_scale),
      .clip_coef = splat(clip_coef),
      .bc1 = splat(bc1),
      .bc2 = splat(bc2),
      .l2 = config.weight_decay != 0.0f && !config.decoupled_weight_decay,
      .decoupled =
          config.weight_decay != 0.0f && config.decoupled_weight_decay,
  };

  std::vector<float> widened(std::min(n, kBlock));
  float* g = widened.data();
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    const std::size_t len = std::min(kBlock, n - lo);
    halves_to_floats(grad.subspan(lo, len), {g, len});
    float* w = master.data() + lo;
    float* m = momentum.data() + lo;
    float* v = variance.data() + lo;
    const std::size_t full = len - len % kLanes;
    for (std::size_t i = 0; i < full; i += kLanes) {
      adam4(k, g + i, w + i, m + i, v + i);
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
      adam4(k, tg, tw, tm, tv);
      std::memcpy(w + full, tw, bytes);
      std::memcpy(m + full, tm, bytes);
      std::memcpy(v + full, tv, bytes);
    }
    floats_to_halves({w, len}, updated.subspan(lo, len));
  }
}

float clip_coefficient(double global_sqnorm, float max_norm) {
  if (max_norm <= 0.0f) return 1.0f;
  const double norm = std::sqrt(global_sqnorm);
  if (norm <= static_cast<double>(max_norm)) return 1.0f;
  return static_cast<float>(static_cast<double>(max_norm) / (norm + 1e-12));
}

}  // namespace zi
