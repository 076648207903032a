// Adam + loss-scaler tests, including hand-computed reference values and
// the fused kernel against the scalar Adam loop kept as its oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "kernel_tiers.hpp"
#include "optim/adam.hpp"
#include "optim/loss_scaler.hpp"
#include "scalar_oracles.hpp"

namespace zi {
namespace {

// One fused step on gradients given in fp32 (every value below is exact in
// fp16); returns the fp16 write-back.
std::vector<half> adam_step(const AdamConfig& cfg, std::int64_t step,
                            std::vector<float>& w, std::vector<float>& m,
                            std::vector<float>& v, const std::vector<float>& g,
                            float grad_scale = 1.0f, float clip_coef = 1.0f) {
  std::vector<half> g16(g.size()), updated(w.size());
  floats_to_halves(g, g16);
  fused_adam_step(cfg, step, w, m, v, g16, updated, grad_scale, clip_coef);
  return updated;
}

TEST(Adam, FirstStepMatchesHandComputation) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.beta1 = 0.9f;
  cfg.beta2 = 0.999f;
  cfg.eps = 1e-8f;
  std::vector<float> w = {1.0f};
  std::vector<float> m = {0.0f};
  std::vector<float> v = {0.0f};
  std::vector<float> g = {0.5f};
  adam_step(cfg, 1, w, m, v, g);
  // m = 0.1*0.5 = 0.05; v = 0.001*0.25 = 2.5e-4
  // m_hat = 0.05/0.1 = 0.5; v_hat = 2.5e-4/0.001 = 0.25
  // update = 0.5 / (0.5 + 1e-8) ≈ 1.0 → w = 1 - 0.1 = 0.9
  EXPECT_NEAR(m[0], 0.05f, 1e-7f);
  EXPECT_NEAR(v[0], 2.5e-4f, 1e-8f);
  EXPECT_NEAR(w[0], 0.9f, 1e-5f);
}

TEST(Adam, SecondStepAccumulatesMoments) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  std::vector<float> w = {1.0f}, m = {0.0f}, v = {0.0f};
  std::vector<float> g = {0.5f};
  adam_step(cfg, 1, w, m, v, g);
  adam_step(cfg, 2, w, m, v, g);
  // m2 = 0.9*0.05 + 0.1*0.5 = 0.095; bias corr 1-0.81 = 0.19 → m_hat = 0.5
  // v2 = 0.999*2.5e-4 + 0.001*0.25; v_hat = 0.25 → update ≈ 1
  EXPECT_NEAR(m[0], 0.095f, 1e-6f);
  EXPECT_NEAR(w[0], 0.8f, 1e-4f);
}

TEST(Adam, ConstantGradientConvergesTowardSteadyUpdate) {
  AdamConfig cfg;
  cfg.lr = 0.01f;
  std::vector<float> w = {0.0f}, m = {0.0f}, v = {0.0f};
  std::vector<float> g = {1.0f};
  for (int t = 1; t <= 200; ++t) adam_step(cfg, t, w, m, v, g);
  // With constant gradient the step magnitude approaches lr.
  EXPECT_NEAR(w[0], -0.01f * 200.0f, 0.05f);
}

TEST(Adam, GradScaleUnscalesGradient) {
  AdamConfig cfg;
  std::vector<float> w1 = {1.0f}, m1 = {0.0f}, v1 = {0.0f};
  std::vector<float> w2 = {1.0f}, m2 = {0.0f}, v2 = {0.0f};
  std::vector<float> g = {0.25f};
  std::vector<float> g_scaled = {0.25f * 1024.0f};
  adam_step(cfg, 1, w1, m1, v1, g, /*grad_scale=*/1.0f);
  adam_step(cfg, 1, w2, m2, v2, g_scaled, /*grad_scale=*/1024.0f);
  EXPECT_FLOAT_EQ(w1[0], w2[0]);
  EXPECT_FLOAT_EQ(m1[0], m2[0]);
  EXPECT_FLOAT_EQ(v1[0], v2[0]);
}

TEST(Adam, ClipCoefScalesGradient) {
  AdamConfig cfg;
  std::vector<float> w1 = {1.0f}, m1 = {0.0f}, v1 = {0.0f};
  std::vector<float> w2 = {1.0f}, m2 = {0.0f}, v2 = {0.0f};
  std::vector<float> g = {1.0f};
  std::vector<float> g_half = {0.5f};
  adam_step(cfg, 1, w1, m1, v1, g, 1.0f, /*clip_coef=*/0.5f);
  adam_step(cfg, 1, w2, m2, v2, g_half);
  EXPECT_FLOAT_EQ(m1[0], m2[0]);
  EXPECT_FLOAT_EQ(v1[0], v2[0]);
}

TEST(Adam, DecoupledWeightDecayShrinksWeights) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.1f;
  cfg.decoupled_weight_decay = true;
  std::vector<float> w = {2.0f}, m = {0.0f}, v = {0.0f};
  std::vector<float> g = {0.0f};  // zero gradient: only decay acts
  adam_step(cfg, 1, w, m, v, g);
  EXPECT_NEAR(w[0], 2.0f - 0.1f * 0.1f * 2.0f, 1e-6f);
}

TEST(Adam, CoupledWeightDecayEntersMoments) {
  AdamConfig cfg;
  cfg.weight_decay = 0.1f;
  cfg.decoupled_weight_decay = false;
  std::vector<float> w = {2.0f}, m = {0.0f}, v = {0.0f};
  std::vector<float> g = {0.0f};
  adam_step(cfg, 1, w, m, v, g);
  EXPECT_NEAR(m[0], 0.1f * 0.1f * 2.0f, 1e-7f);  // decay-derived gradient
}

TEST(Adam, SizeMismatchThrows) {
  AdamConfig cfg;
  std::vector<float> w(4), m(4), v(4);
  std::vector<half> g(3), out(4), short_out(3);
  EXPECT_ANY_THROW(fused_adam_step(cfg, 1, w, m, v, g, out));
  std::vector<half> g4(4);
  EXPECT_ANY_THROW(fused_adam_step(cfg, 1, w, m, v, g4, short_out));
  EXPECT_ANY_THROW(fused_adam_step(cfg, 0, w, m, v, g4, out));
}

TEST(Adam, WritesBackTheUpdatedMasterInFp16) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  std::vector<float> w = {1.0f, -3.0f, 1e-6f}, m(3, 0.0f), v(3, 0.0f);
  const std::vector<half> out = adam_step(cfg, 1, w, m, v, {0.5f, 1.0f, 0.0f});
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(out[i].bits(), half(w[i]).bits()) << i;
  }
}

// ---------------------------------------------------------------------------
// Fused kernel ≡ scalar loop, bit for bit, in every kernel tier.

using FusedAdam = KernelTierTest;
ZI_KERNEL_TIERS(FusedAdam);

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

// fp16 gradients at grad_scale, with every few elements a subnormal, ±0 or
// a tiny value that only the scale keeps representable.
std::vector<half> scaled_grads(std::size_t n, float grad_scale,
                               std::uint64_t seed) {
  Rng rng(seed, 7);
  std::vector<half> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    float x = rng.next_normal() * 0.01f * grad_scale;
    switch (i % 7) {
      case 1:
        x = std::ldexp(static_cast<float>(1 + i % 1023), -24);  // subnormal
        break;
      case 3:
        x = (i % 2 == 0) ? 0.0f : -0.0f;
        break;
      case 5:
        x *= 1e-4f;
        break;
      default:
        break;
    }
    g[i] = half(x);
  }
  return g;
}

TEST_P(FusedAdam, BitIdenticalToScalarLoop) {
  struct Decay {
    float wd;
    bool decoupled;
  };
  const Decay decays[] = {{0.0f, true}, {0.01f, false}, {0.01f, true}};
  // 1000 is not a power of two, so reassociating the unscale and the clip
  // would change bits.
  const float scales[] = {1.0f, 1024.0f, 1000.0f};
  const float clips[] = {1.0f, 0.73f};
  const std::int64_t steps[] = {1, 10000};
  // Lane tails 0-7 around a few sizes (both tiers' vector widths), and the
  // kernel's 512-element staging block edges.
  const std::size_t sizes[] = {0,  1,  2,  3,   4,   5,   7,    8,   9,
                               13, 15, 16, 17, 511, 512, 513, 1027, 4099};
  std::uint64_t seed = 1;
  for (const Decay& d : decays) {
    for (const float scale : scales) {
      for (const float clip : clips) {
        for (const std::int64_t step : steps) {
          for (const std::size_t n : sizes) {
            ++seed;
            AdamConfig cfg;
            cfg.lr = 3e-3f;
            cfg.weight_decay = d.wd;
            cfg.decoupled_weight_decay = d.decoupled;
            Rng rng(seed, 11);
            std::vector<float> w(n), m(n), v(n);
            for (std::size_t i = 0; i < n; ++i) {
              w[i] = rng.next_normal();
              m[i] = step == 1 ? 0.0f : 1e-3f * rng.next_normal();
              v[i] = step == 1 ? 0.0f : 1e-6f * std::fabs(rng.next_normal());
            }
            const std::vector<half> g16 = scaled_grads(n, scale, seed);
            std::vector<float> g32(n);
            oracle::halves_to_floats(g16, g32);

            std::vector<float> ow = w, om = m, ov = v;
            oracle::adam_step(cfg, step, ow, om, ov, g32, scale, clip);
            std::vector<half> updated(n);
            fused_adam_step(cfg, step, w, m, v, g16, updated, scale, clip);

            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bits_of(w[i]), bits_of(ow[i]))
                  << "master i=" << i << " n=" << n << " seed=" << seed;
              ASSERT_EQ(bits_of(m[i]), bits_of(om[i])) << "momentum i=" << i;
              ASSERT_EQ(bits_of(v[i]), bits_of(ov[i])) << "variance i=" << i;
              ASSERT_EQ(updated[i].bits(), half(ow[i]).bits())
                  << "fp16 write-back i=" << i;
            }
          }
        }
      }
    }
  }
}

// The NVMe optimizer updates a shard one chunk at a time; chunking must not
// change a bit (chunk edges fall mid-block and mid-vector).
TEST_P(FusedAdam, ChunkedEqualsWhole) {
  AdamConfig cfg;
  cfg.weight_decay = 0.01f;
  const std::size_t n = 3001;
  Rng rng(5, 1);
  std::vector<float> w(n), m(n, 0.0f), v(n, 0.0f);
  for (float& x : w) x = rng.next_normal();
  const std::vector<half> g = scaled_grads(n, 512.0f, 9);
  std::vector<float> cw = w, cm = m, cv = v;
  std::vector<half> whole(n), chunked(n);
  fused_adam_step(cfg, 3, w, m, v, g, whole, 512.0f, 0.9f);
  const std::size_t chunk = 333;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t len = std::min(chunk, n - lo);
    fused_adam_step(cfg, 3, std::span<float>(cw).subspan(lo, len),
                    std::span<float>(cm).subspan(lo, len),
                    std::span<float>(cv).subspan(lo, len),
                    std::span<const half>(g).subspan(lo, len),
                    std::span<half>(chunked).subspan(lo, len), 512.0f, 0.9f);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(w[i]), bits_of(cw[i])) << i;
    ASSERT_EQ(whole[i].bits(), chunked[i].bits()) << i;
  }
}

TEST(ClipCoefficient, Semantics) {
  EXPECT_EQ(clip_coefficient(4.0, 0.0f), 1.0f);      // disabled
  EXPECT_EQ(clip_coefficient(0.25, 1.0f), 1.0f);     // norm 0.5 <= 1
  EXPECT_NEAR(clip_coefficient(4.0, 1.0f), 0.5f, 1e-5f);   // norm 2 → 0.5
  EXPECT_NEAR(clip_coefficient(100.0, 2.0f), 0.2f, 1e-5f); // norm 10 → 0.2
}

// ---------------------------------------------------------------------------
// Loss scaler

TEST(LossScaler, BacksOffOnOverflow) {
  DynamicLossScaler::Config cfg;
  cfg.init_scale = 1024.0f;
  DynamicLossScaler scaler(cfg);
  EXPECT_EQ(scaler.scale(), 1024.0f);
  EXPECT_TRUE(scaler.update(/*found_overflow=*/true));
  EXPECT_EQ(scaler.scale(), 512.0f);
  EXPECT_EQ(scaler.skipped_steps(), 1);
}

TEST(LossScaler, GrowsAfterInterval) {
  DynamicLossScaler::Config cfg;
  cfg.init_scale = 256.0f;
  cfg.growth_interval = 3;
  DynamicLossScaler scaler(cfg);
  EXPECT_FALSE(scaler.update(false));
  EXPECT_FALSE(scaler.update(false));
  EXPECT_EQ(scaler.scale(), 256.0f);
  EXPECT_FALSE(scaler.update(false));  // third clean step → grow
  EXPECT_EQ(scaler.scale(), 512.0f);
}

TEST(LossScaler, OverflowResetsGrowthCounter) {
  DynamicLossScaler::Config cfg;
  cfg.init_scale = 256.0f;
  cfg.growth_interval = 2;
  DynamicLossScaler scaler(cfg);
  scaler.update(false);
  scaler.update(true);  // backoff to 128, counter reset
  EXPECT_EQ(scaler.scale(), 128.0f);
  scaler.update(false);
  EXPECT_EQ(scaler.scale(), 128.0f);  // only 1 clean step since backoff
  scaler.update(false);
  EXPECT_EQ(scaler.scale(), 256.0f);
}

TEST(LossScaler, ClampsToMinAndMax) {
  DynamicLossScaler::Config cfg;
  cfg.init_scale = 2.0f;
  cfg.min_scale = 1.0f;
  cfg.max_scale = 4.0f;
  cfg.growth_interval = 1;
  DynamicLossScaler scaler(cfg);
  scaler.update(true);
  scaler.update(true);
  EXPECT_EQ(scaler.scale(), 1.0f);  // clamped at min
  scaler.update(false);
  scaler.update(false);
  scaler.update(false);
  EXPECT_EQ(scaler.scale(), 4.0f);  // clamped at max
}

TEST(LossScaler, DisabledPinsScaleToOne) {
  DynamicLossScaler::Config cfg;
  cfg.enabled = false;
  DynamicLossScaler scaler(cfg);
  EXPECT_EQ(scaler.scale(), 1.0f);
  EXPECT_FALSE(scaler.update(true));  // never skips
  EXPECT_EQ(scaler.scale(), 1.0f);
}

}  // namespace
}  // namespace zi
