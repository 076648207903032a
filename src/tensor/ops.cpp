#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace zi {

// ---------------------------------------------------------------------------
// GEMM. All three variants run one register-tiled microkernel: a tile of
// up to kMr rows by kNr columns of C stays in 16-byte vector registers for
// the whole k loop. A arrives as a packed panel of the tile's rows; B as an
// 8-column strip, read in place for gemm / gemm_tn and packed from Bᵀ for
// gemm_nt.
//
// Numerics contract (DESIGN.md §2): the results are bit-identical to plain
// scalar loops, kept as the oracle in tests/test_ops.cpp. Every C element
// accumulates over p in ascending order with a separate multiply and add —
// no FMA, no reassociation, no k-splitting — so an element's value never
// depends on m, n or its place in a tile.
//   gemm, gemm_tn: start from beta·C (+0 when beta == 0, C as is when
//     beta == 1) and add (alpha·a)·b, skipping a term whose alpha·a is zero.
//   gemm_nt: sum a·b from +0, then C = alpha·acc + (beta == 0 ? 0 : beta·C).

namespace {

constexpr i64 kMr = 4;  // rows of C per register tile
constexpr i64 kNr = 8;  // columns of C per register tile: two vectors
// gemm_nt packs Bᵀ for this many rows or more. For a single row (decode)
// packing costs about what it saves, so B is read in place.
constexpr i64 kNtPackMinRows = 2;

// Generic 16-byte vectors: SSE2 at the x86-64 baseline ISA.
using V4 = float __attribute__((vector_size(16)));

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

V4 splat(float x) { return V4{x, x, x, x}; }

// Packing buffers, one set per thread, grown on demand and reused.
float* scratch(std::vector<float>& buf, i64 floats) {
  if (buf.size() < static_cast<std::size_t>(floats)) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}
thread_local std::vector<float> t_a_panel;
thread_local std::vector<float> t_b_strips;

enum class Form {
  kAccumulate,  // gemm, gemm_tn
  kDot,         // gemm_nt
};

// op(A)[i][p] is a[i * row_stride + p * col_stride].
struct AView {
  const float* a;
  i64 row_stride;
  i64 col_stride;
};

// B as kNr-column strips: full strip s begins at base + s * strip_stride
// with rows ldb apart; a partial last strip is packed, zero-padded, at
// `tail` with rows kNr apart.
struct BStrips {
  const float* base;
  i64 strip_stride;
  i64 ldb;
  const float* tail;
};

// Packs a strip of w columns, element (p, c) at b[p * row_step +
// c * col_step], into dst[p * kNr + c], zero-padding columns w..kNr-1. The
// steps let the same loop pack B (gemm, gemm_tn) and Bᵀ (gemm_nt).
void pack_strip(const float* b, i64 row_step, i64 col_step, i64 k, i64 w,
                float* dst) {
  for (i64 p = 0; p < k; ++p) {
    for (i64 c = 0; c < kNr; ++c) {
      dst[p * kNr + c] = c < w ? b[p * row_step + c * col_step] : 0.0f;
    }
  }
}

// Calls f(0), ..., f(R - 1) unrolled, so the tile's per-row accumulators
// are indexed by constants and stay in registers.
template <int R, typename F>
void unroll(F&& f) {
  [&]<int... r>(std::integer_sequence<int, r...>) {
    (f(r), ...);
  }(std::make_integer_sequence<int, R>{});
}

// The microkernel: one R x 8 tile of C (rows ldc apart). ap is a packed
// R-row A panel (ap[p * R + r]); row p of the B strip is at b + p * ldb.
// The tile sums over p ascending; kSkipZero drops the term of a zero A
// entry (gemm, gemm_tn).
template <int R, bool kSkipZero>
void tile_kernel(const float* ap, const float* b, i64 ldb, i64 k, float* ct,
                 i64 ldc, float alpha, float beta, Form form) {
  const bool load_c = beta != 0.0f;
  V4 lo[R], hi[R];
  unroll<R>([&](int r) {
    lo[r] = hi[r] = V4{};
    if (form == Form::kAccumulate && load_c) {
      lo[r] = load4(ct + r * ldc);
      hi[r] = load4(ct + r * ldc + 4);
      if (beta != 1.0f) {
        lo[r] *= splat(beta);
        hi[r] *= splat(beta);
      }
    }
  });
  for (i64 p = 0; p < k; ++p, ap += R, b += ldb) {
    const V4 b0 = load4(b);
    const V4 b1 = load4(b + 4);
    unroll<R>([&](int r) {
      if (kSkipZero && ap[r] == 0.0f) return;
      const V4 av = splat(ap[r]);
      lo[r] += av * b0;
      hi[r] += av * b1;
    });
  }
  unroll<R>([&](int r) {
    float* crow = ct + r * ldc;
    if (form == Form::kDot) {
      const V4 c0 = load_c ? splat(beta) * load4(crow) : V4{};
      const V4 c1 = load_c ? splat(beta) * load4(crow + 4) : V4{};
      lo[r] = splat(alpha) * lo[r] + c0;
      hi[r] = splat(alpha) * hi[r] + c1;
    }
    store4(crow, lo[r]);
    store4(crow + 4, hi[r]);
  });
}

// One block of R rows of C against every strip of B.
template <int R>
void row_block(const float* ap, bool skip_zero, const BStrips& bs, float* c,
               i64 k, i64 n, float alpha, float beta, Form form) {
  const bool load_c = beta != 0.0f;
  for (i64 j = 0; j < n; j += kNr) {
    const i64 w = std::min(kNr, n - j);
    const bool full = w == kNr;
    const float* b = full ? bs.base + (j / kNr) * bs.strip_stride : bs.tail;
    const i64 ldb = full ? bs.ldb : kNr;
    // A partial strip's C tile goes through a padded copy.
    float edge[R * kNr];
    float* ct = full ? c + j : edge;
    const i64 ldc = full ? n : kNr;
    if (!full) {
      std::fill(edge, edge + R * kNr, 0.0f);
      if (load_c) {
        for (int r = 0; r < R; ++r) {
          std::copy(c + r * n + j, c + r * n + j + w, edge + r * kNr);
        }
      }
    }

    if (skip_zero) {
      tile_kernel<R, true>(ap, b, ldb, k, ct, ldc, alpha, beta, form);
    } else {
      tile_kernel<R, false>(ap, b, ldb, k, ct, ldc, alpha, beta, form);
    }
    if (!full) {
      for (int r = 0; r < R; ++r) {
        std::copy(edge + r * kNr, edge + r * kNr + w, c + r * n + j);
      }
    }
  }
}

// C = op(A) · B through the microkernel, one packed block of up to kMr rows
// at a time. `a_scale` is applied while packing (alpha for the accumulate
// form, 1 for the dot form).
void gemm_tiled(AView a, float a_scale, const BStrips& bs, float* c, i64 m,
                i64 k, i64 n, float alpha, float beta, Form form) {
  float* ap = scratch(t_a_panel, kMr * k);
  for (i64 i = 0; i < m; i += kMr) {
    const i64 rows = std::min(kMr, m - i);
    bool any_zero = false;
    for (i64 p = 0; p < k; ++p) {
      for (i64 r = 0; r < rows; ++r) {
        const float v =
            a_scale * a.a[(i + r) * a.row_stride + p * a.col_stride];
        ap[p * rows + r] = v;
        any_zero = any_zero || v == 0.0f;
      }
    }
    const bool skip = form == Form::kAccumulate && any_zero;
    float* cb = c + i * n;
    switch (rows) {
      case 1: row_block<1>(ap, skip, bs, cb, k, n, alpha, beta, form); break;
      case 2: row_block<2>(ap, skip, bs, cb, k, n, alpha, beta, form); break;
      case 3: row_block<3>(ap, skip, bs, cb, k, n, alpha, beta, form); break;
      default: row_block<4>(ap, skip, bs, cb, k, n, alpha, beta, form); break;
    }
  }
}

// B[k][n] in place; only a partial last strip is packed.
BStrips strips_of_b(const float* b, i64 k, i64 n) {
  BStrips bs{b, kNr, n, nullptr};
  const i64 tail = n % kNr;
  if (tail != 0) {
    float* dst = scratch(t_b_strips, k * kNr);
    pack_strip(b + (n - tail), n, 1, k, tail, dst);
    bs.tail = dst;
  }
  return bs;
}

// Reads B[j + c][p + q] for c < kNr, q < 4 (B's rows k apart, bj at row
// j, column p) transposed in registers: lane c % 4 of t[c / 4][q] is
// B[j + c][p + q], so each vector holds one p of four columns.
void load_bt_block(const float* bj, i64 k, V4 (&t)[kNr / 4][4]) {
  unroll<kNr / 4>([&](int g) {
    V4 r[4];
    unroll<4>([&](int c) { r[c] = load4(bj + (4 * g + c) * k); });
    const V4 lo01 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
    const V4 lo23 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
    const V4 hi01 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
    const V4 hi23 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
    t[g][0] = __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
    t[g][1] = __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
    t[g][2] = __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
    t[g][3] = __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
  });
}

// Packs the Bᵀ strip of columns [j, j + w) of op(B), i.e. rows of B[n][k],
// into dst[p * kNr + c].
void pack_bt_strip(const float* bj, i64 k, i64 w, float* dst) {
  i64 p = 0;
  for (; w == kNr && p + 4 <= k; p += 4) {
    V4 t[kNr / 4][4];
    load_bt_block(bj + p, k, t);
    unroll<4>([&](int q) {
      unroll<kNr / 4>([&](int g) {
        store4(dst + (p + q) * kNr + 4 * g, t[g][q]);
      });
    });
  }
  // A partial strip, and the last k % 4 p of a full one, one by one.
  pack_strip(bj + p, 1, k, k - p, w, dst + p * kNr);
}

// gemm_nt without packing, for fewer than kNtPackMinRows rows: kNr rows of
// B[n][k] are read in place, four p at a time, and transposed in registers,
// so lane c of an accumulator is column j + c, summed over p ascending like
// every other element.
void gemm_nt_unpacked(const float* a, const float* b, float* c, i64 m, i64 k,
                      i64 n, float alpha, float beta) {
  constexpr int kGroups = kNr / 4;
  for (i64 i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    i64 j = 0;
    for (; j + kNr <= n; j += kNr) {
      const float* bj = b + j * k;
      V4 acc[kGroups] = {};
      i64 p = 0;
      for (; p + 4 <= k; p += 4) {
        const V4 a4 = load4(arow + p);
        V4 t[kGroups][4];
        load_bt_block(bj + p, k, t);
        unroll<4>([&](int q) {
          unroll<kGroups>([&](int g) { acc[g] += splat(a4[q]) * t[g][q]; });
        });
      }
      for (; p < k; ++p) {
        unroll<kGroups>([&](int g) {
          const float* col = bj + 4 * g * k + p;
          const V4 bv = {col[0], col[k], col[2 * k], col[3 * k]};
          acc[g] += splat(arow[p]) * bv;
        });
      }
      unroll<kGroups>([&](int g) {
        float* cg = crow + j + 4 * g;
        const V4 prior = beta == 0.0f ? V4{} : splat(beta) * load4(cg);
        store4(cg, splat(alpha) * acc[g] + prior);
      });
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (i64 p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
          float alpha, float beta) {
  gemm_tiled(AView{a, k, 1}, alpha, strips_of_b(b, k, n), c, m, k, n, alpha,
             beta, Form::kAccumulate);
}

void gemm_nt(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha, float beta) {
  // C[i][j] = sum_p A[i][p] * B[j][p].
  if (m < kNtPackMinRows) {
    gemm_nt_unpacked(a, b, c, m, k, n, alpha, beta);
    return;
  }
  const i64 strips = (n + kNr - 1) / kNr;
  float* bt = scratch(t_b_strips, strips * k * kNr);
  for (i64 s = 0; s < strips; ++s) {
    const i64 j = s * kNr;
    pack_bt_strip(b + j * k, k, std::min(kNr, n - j), bt + s * k * kNr);
  }
  const BStrips bs{bt, k * kNr, kNr, bt + (n / kNr) * k * kNr};
  gemm_tiled(AView{a, k, 1}, 1.0f, bs, c, m, k, n, alpha, beta, Form::kDot);
}

void gemm_tn(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha, float beta) {
  // C[i][j] = sum_p A[p][i] * B[p][j].
  gemm_tiled(AView{a, 1, m}, alpha, strips_of_b(b, k, n), c, m, k, n, alpha,
             beta, Form::kAccumulate);
}

// ---------------------------------------------------------------------------
// Linear

void linear_forward(const float* x, const float* w, const float* bias,
                    float* y, i64 batch, i64 in, i64 out) {
  gemm(x, w, y, batch, in, out);
  if (bias != nullptr) {
    for (i64 i = 0; i < batch; ++i) {
      float* yrow = y + i * out;
      for (i64 j = 0; j < out; ++j) yrow[j] += bias[j];
    }
  }
}

void linear_backward(const float* x, const float* w, const float* dy,
                     float* dx, float* dw, float* dbias, i64 batch, i64 in,
                     i64 out) {
  if (dx != nullptr) {
    // dx[B,in] = dy[B,out] · W[in,out]^T
    gemm_nt(dy, w, dx, batch, out, in);
  }
  if (dw != nullptr) {
    // dW[in,out] += x[B,in]^T · dy[B,out]
    gemm_tn(x, dy, dw, in, batch, out, 1.0f, 1.0f);
  }
  if (dbias != nullptr) {
    for (i64 i = 0; i < batch; ++i) {
      const float* dyrow = dy + i * out;
      for (i64 j = 0; j < out; ++j) dbias[j] += dyrow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// GELU (tanh approximation)

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
}  // namespace

void gelu_forward(const float* x, float* y, i64 n) {
  for (i64 i = 0; i < n; ++i) {
    const float v = x[i];
    const float u = kGeluC * (v + kGeluA * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(u));
  }
}

void gelu_backward(const float* x, const float* dy, float* dx, i64 n,
                   bool accumulate) {
  for (i64 i = 0; i < n; ++i) {
    const float v = x[i];
    const float u = kGeluC * (v + kGeluA * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    const float g = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    const float val = dy[i] * g;
    dx[i] = accumulate ? dx[i] + val : val;
  }
}

// ---------------------------------------------------------------------------
// LayerNorm

void layernorm_forward(const float* x, const float* gamma, const float* beta,
                       float* y, float* mean, float* rstd, i64 rows, i64 dim,
                       float eps) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * dim;
    float* yr = y + r * dim;
    double m = 0.0;
    for (i64 j = 0; j < dim; ++j) m += xr[j];
    m /= static_cast<double>(dim);
    double var = 0.0;
    for (i64 j = 0; j < dim; ++j) {
      const double d = xr[j] - m;
      var += d * d;
    }
    var /= static_cast<double>(dim);
    const float rs = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    mean[r] = static_cast<float>(m);
    rstd[r] = rs;
    for (i64 j = 0; j < dim; ++j) {
      const float norm = (xr[j] - static_cast<float>(m)) * rs;
      yr[j] = norm * gamma[j] + beta[j];
    }
  }
}

void layernorm_backward(const float* x, const float* gamma, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgamma, float* dbeta, i64 rows, i64 dim) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * dim;
    const float* dyr = dy + r * dim;
    float* dxr = dx + r * dim;
    const float m = mean[r];
    const float rs = rstd[r];

    // Reductions over the row.
    double sum_dy_g = 0.0;       // sum(dy * gamma)
    double sum_dy_g_xhat = 0.0;  // sum(dy * gamma * xhat)
    for (i64 j = 0; j < dim; ++j) {
      const float xhat = (xr[j] - m) * rs;
      const float dyg = dyr[j] * gamma[j];
      sum_dy_g += dyg;
      sum_dy_g_xhat += static_cast<double>(dyg) * xhat;
      if (dgamma != nullptr) dgamma[j] += dyr[j] * xhat;
      if (dbeta != nullptr) dbeta[j] += dyr[j];
    }
    const float c1 = static_cast<float>(sum_dy_g / static_cast<double>(dim));
    const float c2 =
        static_cast<float>(sum_dy_g_xhat / static_cast<double>(dim));
    for (i64 j = 0; j < dim; ++j) {
      const float xhat = (xr[j] - m) * rs;
      const float dyg = dyr[j] * gamma[j];
      dxr[j] = rs * (dyg - c1 - xhat * c2);
    }
  }
}

// ---------------------------------------------------------------------------
// Softmax

void softmax_forward(const float* x, float* y, i64 rows, i64 dim) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * dim;
    float* yr = y + r * dim;
    float mx = -std::numeric_limits<float>::infinity();
    for (i64 j = 0; j < dim; ++j) mx = std::max(mx, xr[j]);
    double sum = 0.0;
    for (i64 j = 0; j < dim; ++j) {
      const float e = std::exp(xr[j] - mx);
      yr[j] = e;
      sum += e;
    }
    const float inv = 1.0f / static_cast<float>(sum);
    for (i64 j = 0; j < dim; ++j) yr[j] *= inv;
  }
}

void softmax_backward(const float* y, const float* dy, float* dx, i64 rows,
                      i64 dim) {
  for (i64 r = 0; r < rows; ++r) {
    const float* yr = y + r * dim;
    const float* dyr = dy + r * dim;
    float* dxr = dx + r * dim;
    double dot = 0.0;
    for (i64 j = 0; j < dim; ++j) dot += static_cast<double>(dyr[j]) * yr[j];
    const float d = static_cast<float>(dot);
    for (i64 j = 0; j < dim; ++j) dxr[j] = (dyr[j] - d) * yr[j];
  }
}

void apply_causal_mask(float* scores, i64 rows) {
  for (i64 r = 0; r < rows; ++r) {
    float* row = scores + r * rows;
    for (i64 c = r + 1; c < rows; ++c) {
      row[c] = -std::numeric_limits<float>::infinity();
    }
  }
}

// ---------------------------------------------------------------------------
// Embedding

void embedding_forward(const float* table, const std::int32_t* ids, float* y,
                       i64 count, i64 dim) {
  for (i64 i = 0; i < count; ++i) {
    std::memcpy(y + i * dim, table + static_cast<i64>(ids[i]) * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
  }
}

void embedding_backward(const std::int32_t* ids, const float* dy,
                        float* dtable, i64 count, i64 dim) {
  for (i64 i = 0; i < count; ++i) {
    float* drow = dtable + static_cast<i64>(ids[i]) * dim;
    const float* dyrow = dy + i * dim;
    for (i64 j = 0; j < dim; ++j) drow[j] += dyrow[j];
  }
}

// ---------------------------------------------------------------------------
// Cross-entropy

float cross_entropy_forward(const float* logits, const std::int32_t* targets,
                            float* probs, i64 batch, i64 vocab) {
  softmax_forward(logits, probs, batch, vocab);
  double loss = 0.0;
  for (i64 i = 0; i < batch; ++i) {
    const float p = probs[i * vocab + targets[i]];
    loss += -std::log(std::max(p, 1e-30f));
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

void cross_entropy_backward(const float* probs, const std::int32_t* targets,
                            float* dlogits, i64 batch, i64 vocab,
                            float scale) {
  const float inv = scale / static_cast<float>(batch);
  for (i64 i = 0; i < batch; ++i) {
    const float* prow = probs + i * vocab;
    float* drow = dlogits + i * vocab;
    for (i64 j = 0; j < vocab; ++j) drow[j] = prow[j] * inv;
    drow[targets[i]] -= inv;
  }
}

// ---------------------------------------------------------------------------
// Elementwise

void add_inplace(std::span<float> y, std::span<const float> x) {
  ZI_CHECK(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void scale_inplace(std::span<float> y, float s) {
  for (float& v : y) v *= s;
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  ZI_CHECK(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

double squared_norm(std::span<const float> x) {
  double acc = 0.0;
  for (const float v : x) acc += static_cast<double>(v) * v;
  return acc;
}

float abs_max(std::span<const float> x) {
  float best = 0.0f;
  for (const float v : x) best = std::max(best, std::fabs(v));
  return best;
}

bool has_nan_or_inf(std::span<const float> x) {
  for (const float v : x) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace zi
