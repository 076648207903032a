#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/kernel_tier.hpp"

namespace zi {

// ---------------------------------------------------------------------------
// GEMM. Every variant runs one register-tiled microkernel: a tile of up to
// kMr rows by kNr columns of C stays in vector registers, two vectors per
// row, for the whole k loop. The microkernel is one template over the
// vector type, in two tiers (common/kernel_tier.hpp): 16-byte vectors and
// 8-column strips (SSE2, the x86-64 baseline), or 32-byte vectors and
// 16-column strips, compiled only inside a target("avx2,f16c") function.
// op(A) is packed once per call into kMr-row panels. op(B) is walked as
// kNr-column strips; each strip is read in place (full strips of an fp32 B
// in gemm / gemm_tn) or packed, and then meets every A panel. Packing is
// where an fp16 B is widened and where gemm_nt transposes Bᵀ.
//
// Numerics contract (DESIGN.md §2): the results are bit-identical to plain
// scalar loops, kept as the oracle in tests/test_ops.cpp, in either tier.
// Every C element accumulates over p in ascending order with a separate
// multiply and add — no FMA (the wide tier enables AVX2 and F16C only), no
// reassociation, no k-splitting — so an element's value never depends on
// m, n, the tile width or its place in a tile.
//   gemm, gemm_tn: start from beta·C (+0 when beta == 0, C as is when
//     beta == 1) and add (alpha·a)·b, skipping a term whose alpha·a is zero.
//   gemm_nt: sum a·b from +0, then C = alpha·acc + (beta == 0 ? 0 : beta·C).
//   fp16 B: widening is exact, so the fp16 forms equal the fp32 forms run
//     on the widened B, bit for bit.

namespace {

constexpr i64 kMr = 4;  // rows of C per register tile
// The fp32 gemm_nt packs Bᵀ for this many rows or more. For a single row
// (decode) packing costs about what it saves, so B is read in place.
constexpr i64 kNtPackMinRows = 2;

// Generic vectors: 16 bytes (SSE2) and 32 bytes (the AVX2 tier).
using V4 = float __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));

template <class V>
constexpr i64 kLanes = sizeof(V) / sizeof(float);
// Columns of C per register tile: two vectors.
template <class V>
constexpr i64 kNr = 2 * kLanes<V>;

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

V4 load4(const float* p) {
  V4 v;
  load(v, p);
  return v;
}

V4 splat(float x) { return V4{x, x, x, x}; }

// Packing buffers, one set per thread, grown on demand and reused.
template <typename T>
T* scratch(std::vector<T>& buf, i64 elems) {
  if (buf.size() < static_cast<std::size_t>(elems)) {
    buf.resize(static_cast<std::size_t>(elems));
  }
  return buf.data();
}
thread_local std::vector<float> t_a_panels;
thread_local std::vector<char> t_a_skip;
thread_local std::vector<float> t_b_strip;
thread_local std::vector<float> t_b_rows;
thread_local std::vector<half> t_b_tail;

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

// One kNr-column strip of op(B): row p at b + p * ldb.
struct Strip {
  const float* b;
  i64 ldb;
};

// Packs a strip of w columns, element (p, c) at b[p * row_step +
// c * col_step], into dst[p * nr + c], zero-padding columns w..nr-1. The
// steps let the same loop pack B (gemm, gemm_tn) and Bᵀ (gemm_nt).
template <i64 nr>
void pack_strip(const float* b, i64 row_step, i64 col_step, i64 k, i64 w,
                float* dst) {
  for (i64 p = 0; p < k; ++p) {
    for (i64 c = 0; c < nr; ++c) {
      dst[p * nr + c] = c < w ? b[p * row_step + c * col_step] : 0.0f;
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

// The microkernel: one R x kNr<V> tile of C (rows ldc apart). ap is a
// packed R-row A panel (ap[p * R + r]); row p of the B strip is at
// b + p * ldb. The tile sums over p ascending; kSkipZero drops the term of
// a zero A entry (gemm, gemm_tn).
template <class V, int R, bool kSkipZero>
void tile_kernel(const float* ap, const float* b, i64 ldb, i64 k, float* ct,
                 i64 ldc, float alpha, float beta, Form form) {
  constexpr i64 L = kLanes<V>;
  const bool load_c = beta != 0.0f;
  V lo[R], hi[R];
  unroll<R>([&](int r) {
    lo[r] = hi[r] = V{};
    if (form == Form::kAccumulate && load_c) {
      load(lo[r], ct + r * ldc);
      load(hi[r], ct + r * ldc + L);
      if (beta != 1.0f) {
        lo[r] *= beta;
        hi[r] *= beta;
      }
    }
  });
  for (i64 p = 0; p < k; ++p, ap += R, b += ldb) {
    V b0, b1;
    load(b0, b);
    load(b1, b + L);
    unroll<R>([&](int r) {
      if (kSkipZero && ap[r] == 0.0f) return;
      lo[r] += ap[r] * b0;
      hi[r] += ap[r] * b1;
    });
  }
  unroll<R>([&](int r) {
    float* crow = ct + r * ldc;
    if (form == Form::kDot) {
      V c0{}, c1{};
      if (load_c) {
        load(c0, crow);
        load(c1, crow + L);
        c0 = beta * c0;
        c1 = beta * c1;
      }
      lo[r] = alpha * lo[r] + c0;
      hi[r] = alpha * hi[r] + c1;
    }
    store(crow, lo[r]);
    store(crow + L, hi[r]);
  });
}

// The R x w tile of C at rows c..c+R-1 (n apart), columns j..j+w-1. A
// partial strip's tile goes through a padded copy.
template <class V, int R>
void tile(const float* ap, bool skip_zero, Strip s, float* c, i64 j, i64 w,
          i64 k, i64 n, float alpha, float beta, Form form) {
  constexpr i64 nr = kNr<V>;
  const bool full = w == nr;
  float edge[R * nr];
  float* ct = full ? c + j : edge;
  const i64 ldc = full ? n : nr;
  if (!full) {
    std::fill(edge, edge + R * nr, 0.0f);
    if (beta != 0.0f) {
      for (int r = 0; r < R; ++r) {
        std::copy(c + r * n + j, c + r * n + j + w, edge + r * nr);
      }
    }
  }
  if (skip_zero) {
    tile_kernel<V, R, true>(ap, s.b, s.ldb, k, ct, ldc, alpha, beta, form);
  } else {
    tile_kernel<V, R, false>(ap, s.b, s.ldb, k, ct, ldc, alpha, beta, form);
  }
  if (!full) {
    for (int r = 0; r < R; ++r) {
      std::copy(edge + r * nr, edge + r * nr + w, c + r * n + j);
    }
  }
}

// One tile of `rows` (1..kMr) rows; the arguments are tile<V, R>'s.
template <class V>
void tile_rows(i64 rows, const float* ap, bool skip_zero, Strip s, float* c,
               i64 j, i64 w, i64 k, i64 n, float alpha, float beta,
               Form form) {
  switch (rows) {
    case 1: tile<V, 1>(ap, skip_zero, s, c, j, w, k, n, alpha, beta, form); break;
    case 2: tile<V, 2>(ap, skip_zero, s, c, j, w, k, n, alpha, beta, form); break;
    case 3: tile<V, 3>(ap, skip_zero, s, c, j, w, k, n, alpha, beta, form); break;
    default: tile<V, 4>(ap, skip_zero, s, c, j, w, k, n, alpha, beta, form);
  }
}

// The two tiers of the microkernel. The 32-byte one is built only here,
// inside a target function with internal linkage, and everything it calls
// is inlined into it, so no baseline caller can reach AVX2 code.
void tile_sse2(i64 rows, const float* ap, bool skip_zero, Strip s, float* c,
               i64 j, i64 w, i64 k, i64 n, float alpha, float beta,
               Form form) {
  tile_rows<V4>(rows, ap, skip_zero, s, c, j, w, k, n, alpha, beta, form);
}

[[gnu::target("avx2,f16c"), gnu::flatten]] void tile_avx2(
    i64 rows, const float* ap, bool skip_zero, Strip s, float* c, i64 j,
    i64 w, i64 k, i64 n, float alpha, float beta, Form form) {
  tile_rows<V8>(rows, ap, skip_zero, s, c, j, w, k, n, alpha, beta, form);
}

using TileFn = decltype(&tile_sse2);

// C = op(A) · op(B) through the microkernel `run_tile` with nr-column
// strips. op(A) is packed once, scaled by `a_scale` (alpha for the
// accumulate form, 1 for the dot form): the panel of rows i..i+3 starts at
// i * k with element (p, r) at [p * rows + r]. `strip(j, w)` yields the
// strip of columns j..j+w-1, which then runs against every panel.
template <i64 nr, typename StripFn>
void gemm_tiled(TileFn run_tile, AView a, float a_scale, StripFn&& strip,
                float* c, i64 m, i64 k, i64 n, float alpha, float beta,
                Form form) {
  float* ap = scratch(t_a_panels, m * k);
  char* skip = scratch(t_a_skip, (m + kMr - 1) / kMr);
  for (i64 i = 0; i < m; i += kMr) {
    const i64 rows = std::min(kMr, m - i);
    float* panel = ap + i * k;
    bool any_zero = false;
    for (i64 p = 0; p < k; ++p) {
      for (i64 r = 0; r < rows; ++r) {
        const float v =
            a_scale * a.a[(i + r) * a.row_stride + p * a.col_stride];
        panel[p * rows + r] = v;
        any_zero = any_zero || v == 0.0f;
      }
    }
    skip[i / kMr] = form == Form::kAccumulate && any_zero;
  }
  for (i64 j = 0; j < n; j += nr) {
    const i64 w = std::min(nr, n - j);
    const Strip s = strip(j, w);
    for (i64 i = 0; i < m; i += kMr) {
      run_tile(std::min(kMr, m - i), ap + i * k, skip[i / kMr] != 0, s,
               c + i * n, j, w, k, n, alpha, beta, form);
    }
  }
}

// Strips of an fp32 B[k][n]: full strips in place, a partial one packed.
template <i64 nr>
auto strips_of_b(const float* b, i64 k, i64 n) {
  return [=](i64 j, i64 w) {
    if (w == nr) return Strip{b + j, n};
    float* dst = scratch(t_b_strip, k * nr);
    pack_strip<nr>(b + j, n, 1, k, w, dst);
    return Strip{dst, nr};
  };
}

// Strips of an fp16 B[k][n], widened nr halves per row into the packed
// strip; a partial strip is first copied, zero-padded, to nr columns.
template <i64 nr>
auto strips_of_half_b(const half* b, i64 k, i64 n) {
  return [=](i64 j, i64 w) {
    const half* src = b + j;
    std::size_t stride = static_cast<std::size_t>(n);
    if (w < nr) {
      half* padded = scratch(t_b_tail, k * nr);
      for (i64 p = 0; p < k; ++p) {
        std::fill(std::copy(b + p * n + j, b + p * n + n, padded + p * nr),
                  padded + (p + 1) * nr, half());
      }
      src = padded;
      stride = nr;
    }
    float* dst = scratch(t_b_strip, k * nr);
    halves_to_floats_strided(src, stride, nr, static_cast<std::size_t>(k),
                             dst);
    return Strip{dst, nr};
  };
}

// Reads B[j + c][p + q] for c < 4·G, q < 4 (B's rows k apart, bj at row
// j, column p) transposed in registers: lane c % 4 of t[c / 4][q] is
// B[j + c][p + q], so each vector holds one p of four columns.
template <int G>
void load_bt_block(const float* bj, i64 k, V4 (&t)[G][4]) {
  unroll<G>([&](int g) {
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
// into dst[p * nr + c].
template <i64 nr>
void pack_bt_strip(const float* bj, i64 k, i64 w, float* dst) {
  constexpr int kGroups = nr / 4;
  i64 p = 0;
  for (; w == nr && p + 4 <= k; p += 4) {
    V4 t[kGroups][4];
    load_bt_block<kGroups>(bj + p, k, t);
    unroll<4>([&](int q) {
      unroll<kGroups>([&](int g) {
        store(dst + (p + q) * nr + 4 * g, t[g][q]);
      });
    });
  }
  // A partial strip, and the last k % 4 p of a full one, one by one.
  pack_strip<nr>(bj + p, 1, k, k - p, w, dst + p * nr);
}

// Bᵀ strips of an fp32 B[n][k].
template <i64 nr>
auto strips_of_bt(const float* b, i64 k) {
  return [=](i64 j, i64 w) {
    float* dst = scratch(t_b_strip, k * nr);
    pack_bt_strip<nr>(b + j * k, k, w, dst);
    return Strip{dst, nr};
  };
}

// Bᵀ strips of an fp16 B[n][k]: the strip's w rows are contiguous, so they
// are widened in one pass and then transposed like an fp32 strip.
template <i64 nr>
auto strips_of_half_bt(const half* b, i64 k) {
  return [=](i64 j, i64 w) {
    const auto count = static_cast<std::size_t>(w * k);
    float* rows = scratch(t_b_rows, nr * k);
    halves_to_floats(std::span<const half>(b + j * k, count),
                     std::span<float>(rows, count));
    float* dst = scratch(t_b_strip, k * nr);
    pack_bt_strip<nr>(rows, k, w, dst);
    return Strip{dst, nr};
  };
}

// gemm_nt without packing, for fewer than kNtPackMinRows rows: eight rows
// of B[n][k] are read in place, four p at a time, and transposed in
// registers, so lane c of an accumulator is column j + c, summed over p
// ascending like every other element.
void gemm_nt_unpacked(const float* a, const float* b, float* c, i64 m, i64 k,
                      i64 n, float alpha, float beta) {
  constexpr int kGroups = 2;
  constexpr i64 kCols = 4 * kGroups;
  for (i64 i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    i64 j = 0;
    for (; j + kCols <= n; j += kCols) {
      const float* bj = b + j * k;
      V4 acc[kGroups] = {};
      i64 p = 0;
      for (; p + 4 <= k; p += 4) {
        const V4 a4 = load4(arow + p);
        V4 t[kGroups][4];
        load_bt_block<kGroups>(bj + p, k, t);
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
        store(cg, splat(alpha) * acc[g] + prior);
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

// Calls body.operator()<nr>(tile) with the microkernel of the tier the CPU
// picked and its strip width nr. Under 16 columns the 16-wide tile would
// compute mostly padding, and micro_tensor measures it slower than the
// 8-wide one (8 x 32 x 8 and 4 x 32 x 4 gemm_nt), so narrow products keep
// the 8-wide tile; either returns the same bits.
template <typename Body>
void in_tier(i64 n, Body&& body) {
  if (n >= kNr<V8> && kernel_tier() == KernelTier::kAvx2F16c) {
    body.template operator()<kNr<V8>>(tile_avx2);
  } else {
    body.template operator()<kNr<V4>>(tile_sse2);
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
          float alpha, float beta) {
  in_tier(n, [&]<i64 nr>(TileFn tile_fn) {
    gemm_tiled<nr>(tile_fn, AView{a, k, 1}, alpha, strips_of_b<nr>(b, k, n),
                   c, m, k, n, alpha, beta, Form::kAccumulate);
  });
}

void gemm(const float* a, const half* b, float* c, i64 m, i64 k, i64 n,
          float alpha, float beta) {
  in_tier(n, [&]<i64 nr>(TileFn tile_fn) {
    gemm_tiled<nr>(tile_fn, AView{a, k, 1}, alpha,
                   strips_of_half_b<nr>(b, k, n), c, m, k, n, alpha, beta,
                   Form::kAccumulate);
  });
}

void gemm_nt(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha, float beta) {
  // C[i][j] = sum_p A[i][p] * B[j][p].
  if (m < kNtPackMinRows) {
    gemm_nt_unpacked(a, b, c, m, k, n, alpha, beta);
    return;
  }
  in_tier(n, [&]<i64 nr>(TileFn tile_fn) {
    gemm_tiled<nr>(tile_fn, AView{a, k, 1}, 1.0f, strips_of_bt<nr>(b, k), c,
                   m, k, n, alpha, beta, Form::kDot);
  });
}

void gemm_nt(const float* a, const half* b, float* c, i64 m, i64 k, i64 n,
             float alpha, float beta) {
  in_tier(n, [&]<i64 nr>(TileFn tile_fn) {
    gemm_tiled<nr>(tile_fn, AView{a, k, 1}, 1.0f, strips_of_half_bt<nr>(b, k),
                   c, m, k, n, alpha, beta, Form::kDot);
  });
}

void gemm_tn(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha, float beta) {
  // C[i][j] = sum_p A[p][i] * B[p][j].
  in_tier(n, [&]<i64 nr>(TileFn tile_fn) {
    gemm_tiled<nr>(tile_fn, AView{a, 1, m}, alpha, strips_of_b<nr>(b, k, n),
                   c, m, k, n, alpha, beta, Form::kAccumulate);
  });
}

// ---------------------------------------------------------------------------
// Linear

namespace {

// An fp16 parameter vector (bias, gamma, beta) widened for a row loop.
std::vector<float> widened(const half* v, i64 n) {
  std::vector<float> out(static_cast<std::size_t>(n));
  halves_to_floats(std::span<const half>(v, out.size()), out);
  return out;
}

}  // namespace

void linear_forward(const float* x, const half* w, const half* bias,
                    float* y, i64 batch, i64 in, i64 out) {
  gemm(x, w, y, batch, in, out);
  if (bias != nullptr) add_bias(y, bias, batch, out);
}

void add_bias(float* y, const half* bias, i64 rows, i64 n) {
  const std::vector<float> b = widened(bias, n);
  for (i64 i = 0; i < rows; ++i) {
    float* yrow = y + i * n;
    for (i64 j = 0; j < n; ++j) yrow[j] += b[static_cast<std::size_t>(j)];
  }
}

void linear_backward(const float* x, const half* w, const float* dy,
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

void layernorm_forward(const float* x, const half* gamma16,
                       const half* beta16, float* y, float* mean, float* rstd,
                       i64 rows, i64 dim, float eps) {
  const std::vector<float> gamma = widened(gamma16, dim);
  const std::vector<float> beta = widened(beta16, dim);
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
      const auto u = static_cast<std::size_t>(j);
      yr[j] = norm * gamma[u] + beta[u];
    }
  }
}

void layernorm_backward(const float* x, const half* gamma16,
                        const float* mean, const float* rstd, const float* dy,
                        float* dx, float* dgamma, float* dbeta, i64 rows,
                        i64 dim) {
  const std::vector<float> gamma = widened(gamma16, dim);
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
      const float dyg = dyr[j] * gamma[static_cast<std::size_t>(j)];
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
      const float dyg = dyr[j] * gamma[static_cast<std::size_t>(j)];
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

void embedding_forward(const half* table, const std::int32_t* ids, float* y,
                       i64 count, i64 dim) {
  const auto d = static_cast<std::size_t>(dim);
  for (i64 i = 0; i < count; ++i) {
    halves_to_floats(
        std::span<const half>(table + static_cast<i64>(ids[i]) * dim, d),
        std::span<float>(y + i * dim, d));
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
