// Scalar oracles for the vectorised numeric kernels: the per-element loops
// the kernels replaced, kept here so the tests can demand bit-identical
// output from the kernels (the GEMM's scalar loops live in test_ops.cpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "optim/adam.hpp"

namespace zi::oracle {

/// dst[i] = float(src[i]), one element at a time.
inline void halves_to_floats(std::span<const half> src, std::span<float> dst) {
  ZI_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i].to_float();
}

/// dst[i] = half(src[i]), one element at a time.
inline void floats_to_halves(std::span<const float> src, std::span<half> dst) {
  ZI_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = half(src[i]);
}

/// The per-element Adam loop over an fp32 gradient.
inline void adam_step(const AdamConfig& config, std::int64_t step,
                      std::span<float> master, std::span<float> momentum,
                      std::span<float> variance, std::span<const float> grad,
                      float grad_scale = 1.0f, float clip_coef = 1.0f) {
  ZI_CHECK(step >= 1);
  ZI_CHECK(master.size() == momentum.size() &&
           master.size() == variance.size() && master.size() == grad.size());
  const float bc1 = 1.0f - std::pow(config.beta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(config.beta2, static_cast<float>(step));
  const float inv_scale = grad_scale == 1.0f ? 1.0f : 1.0f / grad_scale;

  for (std::size_t i = 0; i < master.size(); ++i) {
    float g = grad[i] * inv_scale * clip_coef;
    if (config.weight_decay != 0.0f && !config.decoupled_weight_decay) {
      g += config.weight_decay * master[i];
    }
    momentum[i] = config.beta1 * momentum[i] + (1.0f - config.beta1) * g;
    variance[i] = config.beta2 * variance[i] + (1.0f - config.beta2) * g * g;
    const float m_hat = momentum[i] / bc1;
    const float v_hat = variance[i] / bc2;
    float update = m_hat / (std::sqrt(v_hat) + config.eps);
    if (config.weight_decay != 0.0f && config.decoupled_weight_decay) {
      update += config.weight_decay * master[i];
    }
    master[i] -= config.lr * update;
  }
}

/// The per-element rank-order sum behind reduce_scatter_sum and
/// allreduce_sum: out[i] = Σ_r float(peers[r][offset + i]) from +0.0f.
template <typename T>
std::vector<T> rank_order_sum(const std::vector<std::vector<T>>& peers,
                              std::size_t offset, std::size_t n) {
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (const auto& peer : peers) {
      if constexpr (std::is_same_v<T, half>) {
        acc += peer[offset + i].to_float();
      } else {
        acc += static_cast<float>(peer[offset + i]);
      }
    }
    out[i] = T(acc);
  }
  return out;
}

}  // namespace zi::oracle
