// Adam optimizer over flat fp32 state (Sec. 2: "Adam is the optimizer used
// most prominently in large model training").
//
// State layout matches the paper's accounting: per parameter element the
// optimizer holds fp32 master weight, fp32 momentum, and fp32 variance
// (plus the fp16 parameter and fp16 gradient elsewhere — 20 bytes total).
// The step is a pure elementwise function over flat arrays, which is what
// makes the chunked NVMe-offloaded step (Sec. 5.2.2) possible: any
// contiguous sub-range can be updated independently.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.hpp"

namespace zi {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
  /// true = AdamW (decoupled decay); false = classic L2-into-gradient.
  bool decoupled_weight_decay = true;
};

/// One fused Adam step over a flat range, the CPU-Adam of ZeRO-Offload:
/// the fp16 gradient is widened, divided by `grad_scale` (loss-scale
/// un-scaling), multiplied by `clip_coef` (global-norm clipping) and
/// applied to the fp32 master, momentum and variance, and the updated
/// master is written to `updated` in fp16 — one pass, four lanes at a time.
/// `step` is 1-based (bias correction). Each lane runs the scalar
/// update's operations in its order (separate multiplies and adds,
/// correctly rounded division and square root), so every element gets the
/// bits a per-element loop would give it.
void fused_adam_step(const AdamConfig& config, std::int64_t step,
                     std::span<float> master, std::span<float> momentum,
                     std::span<float> variance, std::span<const half> grad,
                     std::span<half> updated, float grad_scale = 1.0f,
                     float clip_coef = 1.0f);

/// Gradient-clipping coefficient for a global norm limit: min(1, max/||g||).
/// `global_sqnorm` is the squared norm of the *unscaled* gradient.
float clip_coefficient(double global_sqnorm, float max_norm);

}  // namespace zi
