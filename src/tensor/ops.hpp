// Dense kernels with explicit backward passes.
//
// All compute is fp32. Parameters arrive as fp16 operands (a gathered
// parameter is an fp16 arena block) and the kernels widen them exactly
// where they read them, mirroring tensor cores: fp16 operands, fp32
// accumulation. Matrices are row-major. Kernels are written as free
// functions over raw pointers so the model layer can apply them to tensor
// slices (per attention head, per tile) without materializing views.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.hpp"

namespace zi {

using i64 = std::int64_t;

// ---------------------------------------------------------------------------
// GEMM family. Shapes use the convention C[M,N] = op(A) · op(B).

/// C[M,N] = alpha * A[M,K] · B[K,N] + beta * C
void gemm(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
          float alpha = 1.0f, float beta = 0.0f);

/// C[M,N] = alpha * A[M,K] · B[N,K]^T + beta * C  (B transposed)
void gemm_nt(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha = 1.0f, float beta = 0.0f);

/// gemm and gemm_nt with an fp16 B (a parameter): each 8-column strip of
/// op(B) is widened while it is packed, so the result is bit-identical to
/// the fp32 form run on the widened B.
void gemm(const float* a, const half* b, float* c, i64 m, i64 k, i64 n,
          float alpha = 1.0f, float beta = 0.0f);
void gemm_nt(const float* a, const half* b, float* c, i64 m, i64 k, i64 n,
             float alpha = 1.0f, float beta = 0.0f);

/// C[M,N] = alpha * A[K,M]^T · B[K,N] + beta * C  (A transposed)
void gemm_tn(const float* a, const float* b, float* c, i64 m, i64 k, i64 n,
             float alpha = 1.0f, float beta = 0.0f);

// ---------------------------------------------------------------------------
// Linear: y[B,out] = x[B,in] · W[in,out] + bias[out], with fp16 W and bias.

void linear_forward(const float* x, const half* w, const half* bias,
                    float* y, i64 batch, i64 in, i64 out);

/// dx[B,in] = dy · W^T; dW[in,out] += x^T · dy; dbias[out] += colsum(dy).
/// dW/dbias accumulate so micro-batches / tiles can sum into one buffer;
/// dx is overwritten. Pass dx == nullptr to skip input-gradient computation
/// (first layer).
void linear_backward(const float* x, const half* w, const float* dy,
                     float* dx, float* dw, float* dbias, i64 batch, i64 in,
                     i64 out);

/// y[r][j] += float(bias[j]) for every row r < rows.
void add_bias(float* y, const half* bias, i64 rows, i64 n);

// ---------------------------------------------------------------------------
// GELU (tanh approximation, as used by GPT-2/Megatron).

void gelu_forward(const float* x, float* y, i64 n);
/// dx[i] = dy[i] * gelu'(x[i]); accumulates into dx if accumulate=true.
void gelu_backward(const float* x, const float* dy, float* dx, i64 n,
                   bool accumulate = false);

// ---------------------------------------------------------------------------
// LayerNorm over the last dimension: rows of length `dim`, affine (fp16
// gamma, beta). Saves mean/rstd for backward.

void layernorm_forward(const float* x, const half* gamma, const half* beta,
                       float* y, float* mean, float* rstd, i64 rows, i64 dim,
                       float eps = 1e-5f);

/// dgamma/dbeta accumulate; dx is overwritten.
void layernorm_backward(const float* x, const half* gamma, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgamma, float* dbeta, i64 rows, i64 dim);

// ---------------------------------------------------------------------------
// Row-wise softmax (numerically stable) and its backward.

void softmax_forward(const float* x, float* y, i64 rows, i64 dim);
/// dx = (dy - sum(dy*y)) * y, per row. dx may alias dy.
void softmax_backward(const float* y, const float* dy, float* dx, i64 rows,
                      i64 dim);

/// Causal masking helper: sets scores[r][c] = -inf for c > r within each
/// (rows x rows) square block; used by attention before softmax.
void apply_causal_mask(float* scores, i64 rows);

// ---------------------------------------------------------------------------
// Embedding: table[vocab, dim]; ids in [0, vocab).

/// Widens the fp16 table rows named by ids into y.
void embedding_forward(const half* table, const std::int32_t* ids, float* y,
                       i64 count, i64 dim);
/// dtable accumulates (scatter-add).
void embedding_backward(const std::int32_t* ids, const float* dy,
                        float* dtable, i64 count, i64 dim);

// ---------------------------------------------------------------------------
// Softmax cross-entropy with integer targets, mean reduction.

/// Returns mean loss; writes softmax probabilities (needed for backward).
float cross_entropy_forward(const float* logits, const std::int32_t* targets,
                            float* probs, i64 batch, i64 vocab);
/// dlogits = (probs - onehot(targets)) / batch * scale.
void cross_entropy_backward(const float* probs, const std::int32_t* targets,
                            float* dlogits, i64 batch, i64 vocab,
                            float scale = 1.0f);

// ---------------------------------------------------------------------------
// Elementwise utilities.

/// y += x
void add_inplace(std::span<float> y, std::span<const float> x);
/// y *= s
void scale_inplace(std::span<float> y, float s);
/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
/// Sum of squares (fp64 accumulation).
double squared_norm(std::span<const float> x);
/// Max |x[i]|.
float abs_max(std::span<const float> x);
/// true if any element is NaN or Inf.
bool has_nan_or_inf(std::span<const float> x);

}  // namespace zi
