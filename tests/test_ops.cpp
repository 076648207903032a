// Kernel tests. The tiled GEMM family is compared bit for bit against
// plain scalar loops; backward passes are validated against
// central-difference numerical gradients — the strongest property check
// available for hand-written autograd.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernel_tiers.hpp"
#include "tensor/ops.hpp"

namespace zi {
namespace {

std::vector<float> randn(std::size_t n, std::uint64_t stream) {
  Rng rng(1234, stream);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_normal() * 0.5f;
  return v;
}

// Scalar loss = sum(w_i * out_i) with fixed pseudo-random weights, so the
// analytic upstream gradient is just w.
std::vector<float> loss_weights(std::size_t n) {
  Rng rng(777, 42);
  std::vector<float> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = rng.next_normal();
  return w;
}

double weighted(const std::vector<float>& out, const std::vector<float>& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) s += static_cast<double>(out[i]) * w[i];
  return s;
}

// Central-difference gradient of `loss` w.r.t. x[i].
double numeric_grad(std::vector<float>& x, std::size_t i,
                    const std::function<double()>& loss, float eps = 1e-3f) {
  const float save = x[i];
  x[i] = save + eps;
  const double up = loss();
  x[i] = save - eps;
  const double down = loss();
  x[i] = save;
  return (up - down) / (2.0 * eps);
}

void expect_grad_close(double analytic, double numeric, double tol,
                       const char* what, std::size_t i) {
  const double denom = std::max({std::fabs(analytic), std::fabs(numeric), 1.0});
  EXPECT_LE(std::fabs(analytic - numeric) / denom, tol)
      << what << " index " << i << ": analytic=" << analytic
      << " numeric=" << numeric;
}

std::vector<half> to_halves(const std::vector<float>& v) {
  std::vector<half> h(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) h[i] = half(v[i]);
  return h;
}

std::vector<float> widen(const std::vector<half>& h) {
  std::vector<float> v(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) v[i] = h[i].to_float();
  return v;
}

// Central-difference gradient w.r.t. an fp16 parameter entry: the step is
// whatever fp16 represents nearest to +-eps, so divide by the realized
// difference.
double numeric_grad_half(std::vector<half>& x, std::size_t i,
                         const std::function<double()>& loss,
                         float eps = 1e-2f) {
  const half save = x[i];
  x[i] = half(save.to_float() + eps);
  const double up_at = x[i].to_float();
  const double up = loss();
  x[i] = half(save.to_float() - eps);
  const double down_at = x[i].to_float();
  const double down = loss();
  x[i] = save;
  return (up - down) / (up_at - down_at);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// GEMM. The tiled kernels must reproduce these plain scalar loops bit for
// bit: every C element sums over p in ascending order with a separate
// multiply and add (see the numerics contract in ops.cpp).

void oracle_gemm(const float* a, const float* b, float* c, i64 m, i64 k,
                 i64 n, float alpha, float beta) {
  for (i64 i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (i64 j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float* arow = a + i * k;
    for (i64 p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (i64 j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void oracle_gemm_nt(const float* a, const float* b, float* c, i64 m, i64 k,
                    i64 n, float alpha, float beta) {
  for (i64 i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (i64 j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (i64 p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

void oracle_gemm_tn(const float* a, const float* b, float* c, i64 m, i64 k,
                    i64 n, float alpha, float beta) {
  for (i64 i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (i64 j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  for (i64 p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (i64 i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (i64 j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

using GemmFn = void (*)(const float*, const float*, float*, i64, i64, i64,
                        float, float);

// Normals with exact 0 and -0.0 mixed in; `with_inf` adds +-inf. No NaN
// inputs: every NaN the kernels make is then the one default NaN, so a
// bitwise comparison is meaningful.
std::vector<float> operand(std::size_t n, std::uint64_t stream,
                           bool with_inf) {
  auto v = randn(n, stream);
  Rng pick(99, stream);
  const float inf = std::numeric_limits<float>::infinity();
  for (float& x : v) {
    switch (pick.next_below(with_inf ? 24 : 12)) {
      case 0: x = 0.0f; break;
      case 1: x = -0.0f; break;
      case 12: x = inf; break;
      case 13: x = -inf; break;
      default: break;
    }
  }
  return v;
}

// Runs `fn` and `oracle` on identical operands and counts C elements whose
// bits differ. The shapes of A and B follow the variant's transposes.
int gemm_mismatches(GemmFn fn, GemmFn oracle, i64 m, i64 k, i64 n,
                    float alpha, float beta, bool with_inf,
                    std::uint64_t stream) {
  const auto a = operand(static_cast<std::size_t>(m * k), stream, with_inf);
  const auto b = operand(static_cast<std::size_t>(k * n), stream + 1, with_inf);
  auto got = operand(static_cast<std::size_t>(m * n), stream + 2, with_inf);
  auto want = got;
  fn(a.data(), b.data(), got.data(), m, k, n, alpha, beta);
  oracle(a.data(), b.data(), want.data(), m, k, n, alpha, beta);
  int bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += std::bit_cast<std::uint32_t>(got[i]) !=
           std::bit_cast<std::uint32_t>(want[i]);
  }
  return bad;
}

// Every kernel tier: the SSE2 tier's tile is 4 x 8, the AVX2 tier's 4 x 16.
using Gemm = KernelTierTest;
ZI_KERNEL_TIERS(Gemm);

// Every tile tail of both tile widths, every alpha/beta form, and operands
// holding 0, -0.0 and +-inf.
TEST_P(Gemm, BitIdenticalToScalarLoops) {
  struct Variant {
    const char* name;
    GemmFn fn, oracle;
  };
  const Variant variants[] = {{"gemm", gemm, oracle_gemm},
                              {"gemm_nt", gemm_nt, oracle_gemm_nt},
                              {"gemm_tn", gemm_tn, oracle_gemm_tn}};
  const i64 rows[] = {1, 2, 3, 4, 5, 7, 8, 9, 64};
  const i64 cols[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64};
  const i64 depths[] = {0, 1, 7, 128, 512};
  const std::pair<float, float> scales[] = {
      {1.0f, 0.0f}, {0.5f, 1.0f}, {0.25f, 0.5f}, {-1.0f, 0.0f}};
  std::uint64_t stream = 0;
  for (const Variant& v : variants) {
    for (const i64 m : rows) {
      for (const i64 n : cols) {
        for (const i64 k : depths) {
          for (const auto& [alpha, beta] : scales) {
            for (const bool with_inf : {false, true}) {
              stream += 3;
              EXPECT_EQ(gemm_mismatches(v.fn, v.oracle, m, k, n, alpha, beta,
                                        with_inf, stream),
                        0)
                  << v.name << " m=" << m << " k=" << k << " n=" << n
                  << " alpha=" << alpha << " beta=" << beta
                  << " inf=" << with_inf;
            }
          }
        }
      }
    }
  }
}

// fp16 B operands: halves with +-0, subnormals (random sign and payload)
// and, with `with_inf`, +-inf mixed into rounded normals.
std::vector<half> half_operand(std::size_t n, std::uint64_t stream,
                               bool with_inf) {
  const auto v = randn(n, stream);
  Rng pick(98, stream);
  std::vector<half> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto sign = static_cast<std::uint16_t>(pick.next_below(2) << 15);
    switch (pick.next_below(with_inf ? 24 : 16)) {
      case 0: h[i] = half::from_bits(0x0000); break;
      case 1: h[i] = half::from_bits(0x8000); break;
      case 2:
      case 3:
        h[i] = half::from_bits(static_cast<std::uint16_t>(
            sign | (1 + pick.next_below(0x3FF))));
        break;
      case 16: h[i] = half::from_bits(0x7C00); break;
      case 17: h[i] = half::from_bits(0xFC00); break;
      default: h[i] = half(v[i]); break;
    }
  }
  return h;
}

using HalfGemmFn = void (*)(const float*, const half*, float*, i64, i64, i64,
                            float, float);

// Runs the fp16-B form and the scalar oracle on the widened B; counts C
// elements whose bits differ.
int half_gemm_mismatches(HalfGemmFn fn, GemmFn oracle, i64 m, i64 k, i64 n,
                         float alpha, float beta, bool with_inf,
                         std::uint64_t stream) {
  const auto a = operand(static_cast<std::size_t>(m * k), stream, with_inf);
  const auto b = half_operand(static_cast<std::size_t>(k * n), stream + 1,
                              with_inf);
  std::vector<float> wide(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) wide[i] = b[i].to_float();
  auto got = operand(static_cast<std::size_t>(m * n), stream + 2, with_inf);
  auto want = got;
  fn(a.data(), b.data(), got.data(), m, k, n, alpha, beta);
  oracle(a.data(), wide.data(), want.data(), m, k, n, alpha, beta);
  int bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += std::bit_cast<std::uint32_t>(got[i]) !=
           std::bit_cast<std::uint32_t>(want[i]);
  }
  return bad;
}

// The fp16-B forms over every row count up to two tiles plus one, every
// column tail of the 16-wide strip up to two strips plus one (and so of the
// 8-wide one), k tails around the 4-wide transpose block, and every
// alpha/beta form.
TEST_P(Gemm, HalfBBitIdenticalToScalarLoopsOnWidenedB) {
  struct Variant {
    const char* name;
    HalfGemmFn fn;
    GemmFn oracle;
  };
  const Variant variants[] = {{"gemm", gemm, oracle_gemm},
                              {"gemm_nt", gemm_nt, oracle_gemm_nt}};
  const i64 depths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 33};
  const std::pair<float, float> scales[] = {
      {1.0f, 0.0f}, {0.5f, 1.0f}, {0.25f, 0.5f}, {-1.0f, 0.0f}};
  std::uint64_t stream = 1u << 20;
  for (const Variant& v : variants) {
    for (i64 m = 1; m <= 9; ++m) {
      for (i64 n = 1; n <= 33; ++n) {
        for (const i64 k : depths) {
          for (const auto& [alpha, beta] : scales) {
            for (const bool with_inf : {false, true}) {
              stream += 3;
              EXPECT_EQ(half_gemm_mismatches(v.fn, v.oracle, m, k, n, alpha,
                                             beta, with_inf, stream),
                        0)
                  << v.name << " m=" << m << " k=" << k << " n=" << n
                  << " alpha=" << alpha << " beta=" << beta
                  << " inf=" << with_inf;
            }
          }
        }
      }
    }
  }
  // The serving and training layer shapes.
  for (const Variant& v : variants) {
    for (const i64 m : {1, 8, 16, 64}) {
      for (const auto& [k, n] : {std::pair<i64, i64>{128, 384},
                                 {128, 512}, {512, 128}, {128, 256}}) {
        stream += 3;
        EXPECT_EQ(half_gemm_mismatches(v.fn, v.oracle, m, k, n, 1.0f, 0.0f,
                                       false, stream),
                  0)
            << v.name << " m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// gemm and gemm_tn skip a term whose alpha*a is zero, so 0 * inf never
// reaches C; gemm_nt multiplies every term and turns it into NaN.
TEST_P(Gemm, ZeroTimesInfSkippedExceptInNt) {
  const float inf = std::numeric_limits<float>::infinity();
  const i64 k = 3;
  for (const auto& [m, n] : {std::pair<i64, i64>{1, 9}, {4, 9}, {5, 9},
                             {1, 33}, {4, 33}, {5, 33}}) {
    // op(A) is ones with a zero column at p = 1; op(B) is ones with an inf
    // row at p = 1. Each buffer is [rows][cols] of its own layout.
    auto matrix = [](i64 rows, i64 cols, bool p_is_row, float special) {
      std::vector<float> x(static_cast<std::size_t>(rows * cols), 1.0f);
      for (i64 r = 0; r < rows; ++r) {
        for (i64 col = 0; col < cols; ++col) {
          if ((p_is_row ? r : col) == 1) {
            x[static_cast<std::size_t>(r * cols + col)] = special;
          }
        }
      }
      return x;
    };
    const auto a_mk = matrix(m, k, false, 0.0f);  // A[m][k]
    const auto a_km = matrix(k, m, true, 0.0f);   // A[k][m]
    const auto b_kn = matrix(k, n, true, inf);    // B[k][n]
    const auto b_nk = matrix(n, k, false, inf);   // B[n][k]
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm(a_mk.data(), b_kn.data(), c.data(), m, k, n);
    for (const float v : c) EXPECT_EQ(v, 2.0f);
    gemm_tn(a_km.data(), b_kn.data(), c.data(), m, k, n);
    for (const float v : c) EXPECT_EQ(v, 2.0f);
    gemm_nt(a_mk.data(), b_nk.data(), c.data(), m, k, n);
    for (const float v : c) EXPECT_TRUE(std::isnan(v));
  }
}

// ---------------------------------------------------------------------------
// Linear: full gradient check on x and the fp16 W and bias.

TEST(Linear, GradCheck) {
  const i64 batch = 3, in = 4, out = 5;
  auto x = randn(static_cast<std::size_t>(batch * in), 10);
  auto w = to_halves(randn(static_cast<std::size_t>(in * out), 11));
  auto bias = to_halves(randn(static_cast<std::size_t>(out), 12));
  const auto lw = loss_weights(static_cast<std::size_t>(batch * out));

  auto loss = [&] {
    std::vector<float> y(static_cast<std::size_t>(batch * out));
    linear_forward(x.data(), w.data(), bias.data(), y.data(), batch, in, out);
    return weighted(y, lw);
  };

  // Analytic gradients with upstream dy = lw.
  std::vector<float> dx(static_cast<std::size_t>(batch * in));
  std::vector<float> dw(static_cast<std::size_t>(in * out), 0.0f);
  std::vector<float> dbias(static_cast<std::size_t>(out), 0.0f);
  linear_backward(x.data(), w.data(), lw.data(), dx.data(), dw.data(),
                  dbias.data(), batch, in, out);

  for (std::size_t i = 0; i < x.size(); ++i) {
    expect_grad_close(dx[i], numeric_grad(x, i, loss), 2e-2, "dx", i);
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    expect_grad_close(dw[i], numeric_grad_half(w, i, loss), 2e-2, "dw", i);
  }
  for (std::size_t i = 0; i < bias.size(); ++i) {
    expect_grad_close(dbias[i], numeric_grad_half(bias, i, loss), 2e-2,
                      "dbias", i);
  }
}

TEST(Linear, BackwardAccumulatesWeightGrads) {
  const i64 batch = 2, in = 3, out = 2;
  auto x = randn(static_cast<std::size_t>(batch * in), 13);
  auto w = to_halves(randn(static_cast<std::size_t>(in * out), 14));
  auto dy = randn(static_cast<std::size_t>(batch * out), 15);
  std::vector<float> dw1(static_cast<std::size_t>(in * out), 0.0f);
  linear_backward(x.data(), w.data(), dy.data(), nullptr, dw1.data(), nullptr,
                  batch, in, out);
  std::vector<float> dw2 = dw1;
  linear_backward(x.data(), w.data(), dy.data(), nullptr, dw2.data(), nullptr,
                  batch, in, out);
  for (std::size_t i = 0; i < dw1.size(); ++i) {
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-5f);
  }
}

// fp16 W and bias give exactly the fp32 result on the widened parameters:
// y = x·W + b and dx = dy·Wᵀ, bit for bit, at decode and training batches.
TEST(Linear, Fp16ParamsMatchWidenedFp32) {
  const i64 in = 24, out = 19;
  std::uint64_t stream = 500;
  for (const i64 batch : {1, 3, 8, 17}) {
    const auto x = randn(static_cast<std::size_t>(batch * in), ++stream);
    const auto w = half_operand(static_cast<std::size_t>(in * out), ++stream,
                                /*with_inf=*/false);
    const auto bias = half_operand(static_cast<std::size_t>(out), ++stream,
                                   /*with_inf=*/false);
    const auto dy = randn(static_cast<std::size_t>(batch * out), ++stream);
    const auto w32 = widen(w), bias32 = widen(bias);

    std::vector<float> y(static_cast<std::size_t>(batch * out));
    linear_forward(x.data(), w.data(), bias.data(), y.data(), batch, in, out);
    std::vector<float> want(y.size());
    oracle_gemm(x.data(), w32.data(), want.data(), batch, in, out, 1.0f,
                0.0f);
    for (i64 r = 0; r < batch; ++r) {
      for (i64 j = 0; j < out; ++j) {
        want[static_cast<std::size_t>(r * out + j)] +=
            bias32[static_cast<std::size_t>(j)];
      }
    }
    EXPECT_TRUE(same_bits(y, want)) << "forward batch " << batch;

    std::vector<float> dx(static_cast<std::size_t>(batch * in));
    linear_backward(x.data(), w.data(), dy.data(), dx.data(), nullptr,
                    nullptr, batch, in, out);
    std::vector<float> want_dx(dx.size());
    oracle_gemm_nt(dy.data(), w32.data(), want_dx.data(), batch, out, in,
                   1.0f, 0.0f);
    EXPECT_TRUE(same_bits(dx, want_dx)) << "backward batch " << batch;
  }
}

// ---------------------------------------------------------------------------
// GELU

TEST(Gelu, KnownValues) {
  const float xs[] = {0.0f, 1.0f, -1.0f, 3.0f};
  float ys[4];
  gelu_forward(xs, ys, 4);
  EXPECT_NEAR(ys[0], 0.0f, 1e-6f);
  EXPECT_NEAR(ys[1], 0.8412f, 1e-3f);   // gelu(1)
  EXPECT_NEAR(ys[2], -0.1588f, 1e-3f);  // gelu(-1)
  EXPECT_NEAR(ys[3], 2.9964f, 1e-3f);   // ~x for large x
}

TEST(Gelu, GradCheck) {
  auto x = randn(16, 20);
  const auto lw = loss_weights(16);
  auto loss = [&] {
    std::vector<float> y(16);
    gelu_forward(x.data(), y.data(), 16);
    return weighted(y, lw);
  };
  std::vector<float> dx(16);
  gelu_backward(x.data(), lw.data(), dx.data(), 16);
  for (std::size_t i = 0; i < 16; ++i) {
    expect_grad_close(dx[i], numeric_grad(x, i, loss), 2e-2, "gelu dx", i);
  }
}

TEST(Gelu, BackwardAccumulateFlag) {
  auto x = randn(8, 21);
  auto dy = randn(8, 22);
  std::vector<float> dx(8, 1.0f);
  gelu_backward(x.data(), dy.data(), dx.data(), 8, /*accumulate=*/true);
  std::vector<float> fresh(8);
  gelu_backward(x.data(), dy.data(), fresh.data(), 8, /*accumulate=*/false);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(dx[i], 1.0f + fresh[i], 1e-6f);
}

// ---------------------------------------------------------------------------
// LayerNorm

// The fp32-parameter LayerNorm the fp16 kernels must reproduce on widened
// gamma/beta.
void oracle_layernorm_forward(const float* x, const float* gamma,
                              const float* beta, float* y, i64 rows,
                              i64 dim) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * dim;
    double m = 0.0;
    for (i64 j = 0; j < dim; ++j) m += xr[j];
    m /= static_cast<double>(dim);
    double var = 0.0;
    for (i64 j = 0; j < dim; ++j) {
      const double d = xr[j] - m;
      var += d * d;
    }
    var /= static_cast<double>(dim);
    const float rs = 1.0f / std::sqrt(static_cast<float>(var) + 1e-5f);
    for (i64 j = 0; j < dim; ++j) {
      const float norm = (xr[j] - static_cast<float>(m)) * rs;
      y[r * dim + j] = norm * gamma[j] + beta[j];
    }
  }
}

void oracle_layernorm_backward_dx(const float* x, const float* gamma,
                                  const float* mean, const float* rstd,
                                  const float* dy, float* dx, i64 rows,
                                  i64 dim) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * dim;
    const float* dyr = dy + r * dim;
    double sum_dy_g = 0.0, sum_dy_g_xhat = 0.0;
    for (i64 j = 0; j < dim; ++j) {
      const float xhat = (xr[j] - mean[r]) * rstd[r];
      const float dyg = dyr[j] * gamma[j];
      sum_dy_g += dyg;
      sum_dy_g_xhat += static_cast<double>(dyg) * xhat;
    }
    const float c1 = static_cast<float>(sum_dy_g / static_cast<double>(dim));
    const float c2 =
        static_cast<float>(sum_dy_g_xhat / static_cast<double>(dim));
    for (i64 j = 0; j < dim; ++j) {
      const float xhat = (xr[j] - mean[r]) * rstd[r];
      dx[r * dim + j] = rstd[r] * (dyr[j] * gamma[j] - c1 - xhat * c2);
    }
  }
}

TEST(LayerNorm, NormalizesRows) {
  const i64 rows = 3, dim = 8;
  auto x = randn(static_cast<std::size_t>(rows * dim), 30);
  std::vector<half> gamma(static_cast<std::size_t>(dim), half(1.0f));
  std::vector<half> beta(static_cast<std::size_t>(dim), half(0.0f));
  std::vector<float> y(static_cast<std::size_t>(rows * dim));
  std::vector<float> mean(static_cast<std::size_t>(rows)), rstd(static_cast<std::size_t>(rows));
  layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                    rstd.data(), rows, dim);
  for (i64 r = 0; r < rows; ++r) {
    double m = 0.0, v = 0.0;
    for (i64 j = 0; j < dim; ++j) m += y[static_cast<std::size_t>(r * dim + j)];
    m /= dim;
    for (i64 j = 0; j < dim; ++j) {
      const double d = y[static_cast<std::size_t>(r * dim + j)] - m;
      v += d * d;
    }
    v /= dim;
    EXPECT_NEAR(m, 0.0, 1e-5);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  const i64 rows = 2, dim = 6;
  auto x = randn(static_cast<std::size_t>(rows * dim), 31);
  auto gamma = to_halves(randn(static_cast<std::size_t>(dim), 32));
  auto beta = to_halves(randn(static_cast<std::size_t>(dim), 33));
  const auto lw = loss_weights(static_cast<std::size_t>(rows * dim));

  auto loss = [&] {
    std::vector<float> y(static_cast<std::size_t>(rows * dim));
    std::vector<float> mean(static_cast<std::size_t>(rows)), rstd(static_cast<std::size_t>(rows));
    layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(),
                      mean.data(), rstd.data(), rows, dim);
    return weighted(y, lw);
  };

  std::vector<float> y(static_cast<std::size_t>(rows * dim));
  std::vector<float> mean(static_cast<std::size_t>(rows)), rstd(static_cast<std::size_t>(rows));
  layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                    rstd.data(), rows, dim);
  std::vector<float> dx(static_cast<std::size_t>(rows * dim));
  std::vector<float> dgamma(static_cast<std::size_t>(dim), 0.0f);
  std::vector<float> dbeta(static_cast<std::size_t>(dim), 0.0f);
  layernorm_backward(x.data(), gamma.data(), mean.data(), rstd.data(),
                     lw.data(), dx.data(), dgamma.data(), dbeta.data(), rows,
                     dim);

  for (std::size_t i = 0; i < x.size(); ++i) {
    expect_grad_close(dx[i], numeric_grad(x, i, loss), 3e-2, "ln dx", i);
  }
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    expect_grad_close(dgamma[i], numeric_grad_half(gamma, i, loss), 3e-2,
                      "ln dgamma", i);
  }
  for (std::size_t i = 0; i < beta.size(); ++i) {
    expect_grad_close(dbeta[i], numeric_grad_half(beta, i, loss), 3e-2,
                      "ln dbeta", i);
  }
}

// fp16 gamma/beta give exactly the fp32-parameter result on the widened
// values, forward and backward.
TEST(LayerNorm, Fp16ParamsMatchWidenedFp32) {
  const i64 rows = 5, dim = 37;
  const auto x = randn(static_cast<std::size_t>(rows * dim), 34);
  const auto dy = randn(x.size(), 35);
  const auto gamma = half_operand(static_cast<std::size_t>(dim), 36, false);
  const auto beta = half_operand(static_cast<std::size_t>(dim), 37, false);
  const auto gamma32 = widen(gamma), beta32 = widen(beta);

  std::vector<float> y(x.size()), want(x.size());
  std::vector<float> mean(static_cast<std::size_t>(rows));
  std::vector<float> rstd(mean.size());
  layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                    rstd.data(), rows, dim);
  oracle_layernorm_forward(x.data(), gamma32.data(), beta32.data(),
                           want.data(), rows, dim);
  EXPECT_TRUE(same_bits(y, want));

  std::vector<float> dx(x.size()), want_dx(x.size());
  layernorm_backward(x.data(), gamma.data(), mean.data(), rstd.data(),
                     dy.data(), dx.data(), nullptr, nullptr, rows, dim);
  oracle_layernorm_backward_dx(x.data(), gamma32.data(), mean.data(),
                               rstd.data(), dy.data(), want_dx.data(), rows,
                               dim);
  EXPECT_TRUE(same_bits(dx, want_dx));
}

// ---------------------------------------------------------------------------
// Softmax

TEST(Softmax, RowsSumToOne) {
  const i64 rows = 4, dim = 7;
  auto x = randn(static_cast<std::size_t>(rows * dim), 40);
  std::vector<float> y(static_cast<std::size_t>(rows * dim));
  softmax_forward(x.data(), y.data(), rows, dim);
  for (i64 r = 0; r < rows; ++r) {
    double s = 0.0;
    for (i64 j = 0; j < dim; ++j) {
      const float v = y[static_cast<std::size_t>(r * dim + j)];
      EXPECT_GT(v, 0.0f);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const float x[] = {1000.0f, 1001.0f, 1002.0f};
  float y[3];
  softmax_forward(x, y, 1, 3);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-5f);
  EXPECT_GT(y[2], y[1]);
}

TEST(Softmax, GradCheck) {
  const i64 rows = 2, dim = 5;
  auto x = randn(static_cast<std::size_t>(rows * dim), 41);
  const auto lw = loss_weights(static_cast<std::size_t>(rows * dim));
  auto loss = [&] {
    std::vector<float> y(static_cast<std::size_t>(rows * dim));
    softmax_forward(x.data(), y.data(), rows, dim);
    return weighted(y, lw);
  };
  std::vector<float> y(static_cast<std::size_t>(rows * dim));
  softmax_forward(x.data(), y.data(), rows, dim);
  std::vector<float> dx(static_cast<std::size_t>(rows * dim));
  softmax_backward(y.data(), lw.data(), dx.data(), rows, dim);
  for (std::size_t i = 0; i < x.size(); ++i) {
    expect_grad_close(dx[i], numeric_grad(x, i, loss), 3e-2, "softmax dx", i);
  }
}

TEST(Softmax, CausalMask) {
  std::vector<float> scores(16, 1.0f);
  apply_causal_mask(scores.data(), 4);
  for (i64 r = 0; r < 4; ++r) {
    for (i64 c = 0; c < 4; ++c) {
      if (c > r) {
        EXPECT_TRUE(std::isinf(scores[static_cast<std::size_t>(r * 4 + c)]));
      } else {
        EXPECT_EQ(scores[static_cast<std::size_t>(r * 4 + c)], 1.0f);
      }
    }
  }
  // Softmax over a masked row puts zero probability on future positions.
  std::vector<float> probs(16);
  softmax_forward(scores.data(), probs.data(), 4, 4);
  EXPECT_EQ(probs[1], 0.0f);
  EXPECT_NEAR(probs[0], 1.0f, 1e-6f);
}

// ---------------------------------------------------------------------------
// Embedding

TEST(Embedding, ForwardGathersRows) {
  const i64 vocab = 5, dim = 3;
  std::vector<half> table(static_cast<std::size_t>(vocab * dim));
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = half(static_cast<float>(i));
  }
  const std::int32_t ids[] = {4, 0, 2};
  std::vector<float> y(9);
  embedding_forward(table.data(), ids, y.data(), 3, dim);
  EXPECT_EQ(y[0], 12.0f);  // row 4 starts at 4*3
  EXPECT_EQ(y[3], 0.0f);   // row 0
  EXPECT_EQ(y[6], 6.0f);   // row 2
}

// An fp16 table row is widened exactly (subnormals and +-0 included), for
// row widths on and off the 8-lane conversion grid.
TEST(Embedding, Fp16TableMatchesWidenedRows) {
  const i64 vocab = 6;
  for (const i64 dim : {1, 7, 8, 13, 16}) {
    const auto table = half_operand(static_cast<std::size_t>(vocab * dim),
                                    static_cast<std::uint64_t>(60 + dim),
                                    /*with_inf=*/true);
    const auto table32 = widen(table);
    const std::int32_t ids[] = {5, 0, 3, 3, 1};
    std::vector<float> y(static_cast<std::size_t>(5 * dim));
    embedding_forward(table.data(), ids, y.data(), 5, dim);
    std::vector<float> want;
    for (const std::int32_t id : ids) {
      want.insert(want.end(), table32.begin() + id * dim,
                  table32.begin() + (id + 1) * dim);
    }
    EXPECT_TRUE(same_bits(y, want)) << "dim " << dim;
  }
}

TEST(Embedding, BackwardScatterAddsWithRepeats) {
  const i64 vocab = 4, dim = 2;
  const std::int32_t ids[] = {1, 1, 3};
  std::vector<float> dy = {1.0f, 2.0f, 10.0f, 20.0f, 5.0f, 6.0f};
  std::vector<float> dtable(static_cast<std::size_t>(vocab * dim), 0.0f);
  embedding_backward(ids, dy.data(), dtable.data(), 3, dim);
  EXPECT_EQ(dtable[2], 11.0f);  // row 1 col 0: 1 + 10
  EXPECT_EQ(dtable[3], 22.0f);  // row 1 col 1: 2 + 20
  EXPECT_EQ(dtable[6], 5.0f);   // row 3
  EXPECT_EQ(dtable[0], 0.0f);   // untouched rows stay zero
}

// ---------------------------------------------------------------------------
// Cross-entropy

TEST(CrossEntropy, UniformLogitsGiveLogVocab) {
  const i64 batch = 2, vocab = 8;
  std::vector<float> logits(static_cast<std::size_t>(batch * vocab), 0.0f);
  const std::int32_t targets[] = {3, 5};
  std::vector<float> probs(static_cast<std::size_t>(batch * vocab));
  const float loss =
      cross_entropy_forward(logits.data(), targets, probs.data(), batch, vocab);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(CrossEntropy, GradCheck) {
  const i64 batch = 3, vocab = 6;
  auto logits = randn(static_cast<std::size_t>(batch * vocab), 50);
  const std::int32_t targets[] = {0, 4, 2};
  auto loss = [&] {
    std::vector<float> probs(static_cast<std::size_t>(batch * vocab));
    return static_cast<double>(cross_entropy_forward(
        logits.data(), targets, probs.data(), batch, vocab));
  };
  std::vector<float> probs(static_cast<std::size_t>(batch * vocab));
  cross_entropy_forward(logits.data(), targets, probs.data(), batch, vocab);
  std::vector<float> dlogits(static_cast<std::size_t>(batch * vocab));
  cross_entropy_backward(probs.data(), targets, dlogits.data(), batch, vocab);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    expect_grad_close(dlogits[i], numeric_grad(logits, i, loss), 3e-2, "ce", i);
  }
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  const i64 batch = 1, vocab = 4;
  std::vector<float> logits = {20.0f, 0.0f, 0.0f, 0.0f};
  const std::int32_t targets[] = {0};
  std::vector<float> probs(4);
  const float loss =
      cross_entropy_forward(logits.data(), targets, probs.data(), batch, vocab);
  EXPECT_LT(loss, 1e-6f);
}

// ---------------------------------------------------------------------------
// Elementwise

TEST(Elementwise, Utilities) {
  std::vector<float> y = {1.0f, 2.0f};
  const std::vector<float> x = {10.0f, 20.0f};
  add_inplace(y, x);
  EXPECT_EQ(y[1], 22.0f);
  scale_inplace(y, 0.5f);
  EXPECT_EQ(y[0], 5.5f);
  axpy(2.0f, x, y);
  EXPECT_EQ(y[1], 51.0f);
  EXPECT_NEAR(squared_norm(x), 500.0, 1e-9);
  EXPECT_EQ(abs_max(y), 51.0f);
  EXPECT_FALSE(has_nan_or_inf(y));
  y[0] = std::nanf("");
  EXPECT_TRUE(has_nan_or_inf(y));
}

}  // namespace
}  // namespace zi
