#include "model/attention.hpp"

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"

namespace zi {

CausalSelfAttention::CausalSelfAttention(std::string name, std::int64_t hd,
                                         std::int64_t num_heads,
                                         std::int64_t seq)
    : Module(std::move(name)),
      hd_(hd),
      heads_(num_heads),
      seq_(seq),
      head_size_(hd / num_heads) {
  ZI_CHECK_MSG(hd % num_heads == 0,
               "hidden " << hd << " not divisible by heads " << num_heads);
  qkv_ = std::make_unique<Linear>(this->name() + ".qkv", hd_, 3 * hd_);
  proj_ = std::make_unique<Linear>(this->name() + ".proj", hd_, hd_);
  register_child(qkv_.get());
  register_child(proj_.get());
}

namespace {

/// Copy one head's rows from the packed QKV activation into a contiguous
/// [seq, head_size] scratch. `which` selects q (0), k (1), or v (2).
void gather_head(const float* qkv, float* dst, std::int64_t b, std::int64_t h,
                 int which, std::int64_t seq, std::int64_t hd,
                 std::int64_t hs) {
  for (std::int64_t t = 0; t < seq; ++t) {
    const float* src = qkv + (b * seq + t) * 3 * hd + which * hd + h * hs;
    std::copy(src, src + hs, dst + t * hs);
  }
}

/// Scatter-add a contiguous [seq, head_size] gradient back into the packed
/// QKV gradient layout.
void scatter_head(const float* src, float* dqkv, std::int64_t b,
                  std::int64_t h, int which, std::int64_t seq, std::int64_t hd,
                  std::int64_t hs) {
  for (std::int64_t t = 0; t < seq; ++t) {
    float* dst = dqkv + (b * seq + t) * 3 * hd + which * hd + h * hs;
    const float* row = src + t * hs;
    for (std::int64_t i = 0; i < hs; ++i) dst[i] += row[i];
  }
}

}  // namespace

Tensor CausalSelfAttention::forward(const Tensor& input) {
  ZI_CHECK_MSG(input.ndim() == 2 && input.dim(1) == hd_ &&
                   input.dim(0) % seq_ == 0,
               "attention " << this->name() << ": bad input "
                            << input.to_string());
  const std::int64_t tokens = input.dim(0);
  const std::int64_t batch = tokens / seq_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_size_));

  Tensor qkv = qkv_->run_forward(input);  // [tokens, 3hd]
  saved_att_ = Tensor({batch * heads_, seq_, seq_}, DType::kF32);
  Tensor y1({tokens, hd_}, DType::kF32);

  std::vector<float> q(static_cast<std::size_t>(seq_ * head_size_));
  std::vector<float> k(q.size()), v(q.size()), o(q.size());
  std::vector<float> scores(static_cast<std::size_t>(seq_ * seq_));

  const float* qkv_p = qkv.data<float>();
  float* att_p = saved_att_.data<float>();
  float* y1_p = y1.data<float>();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      gather_head(qkv_p, q.data(), b, h, 0, seq_, hd_, head_size_);
      gather_head(qkv_p, k.data(), b, h, 1, seq_, hd_, head_size_);
      gather_head(qkv_p, v.data(), b, h, 2, seq_, hd_, head_size_);
      // scores = q·k^T / sqrt(hs), causal-masked, softmaxed.
      gemm_nt(q.data(), k.data(), scores.data(), seq_, head_size_, seq_,
              scale);
      apply_causal_mask(scores.data(), seq_);
      float* att = att_p + (b * heads_ + h) * seq_ * seq_;
      softmax_forward(scores.data(), att, seq_, seq_);
      // o = att·v, written into the per-head slice of y1.
      gemm(att, v.data(), o.data(), seq_, seq_, head_size_);
      for (std::int64_t t = 0; t < seq_; ++t) {
        std::copy(o.data() + t * head_size_, o.data() + (t + 1) * head_size_,
                  y1_p + (b * seq_ + t) * hd_ + h * head_size_);
      }
    }
  }
  saved_qkv_ = std::move(qkv);
  return proj_->run_forward(y1);
}

Tensor CausalSelfAttention::forward_kv(
    const Tensor& input, std::span<const DecodeSegment> segments,
    KvLender& kv) {
  ZI_CHECK_MSG(input.ndim() == 2 && input.dim(1) == hd_,
               "attention " << this->name() << ": bad decode input "
                            << input.to_string());
  std::int64_t total = 0;
  for (const DecodeSegment& seg : segments) {
    ZI_CHECK_MSG(seg.rows >= 1 && (seg.start_pos == 0 || seg.rows == 1),
                 "decode is prefill (start 0) or single-row, got start "
                     << seg.start_pos << " rows " << seg.rows);
    ZI_CHECK(seg.start_pos + seg.rows <= seq_);
    total += seg.rows;
  }
  ZI_CHECK(total == input.dim(0));
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_size_));

  fire_pre_forward();
  Tensor qkv = qkv_->run_forward(input);  // [total, 3hd]
  Tensor y1({total, hd_}, DType::kF32);

  std::vector<float> q, kh, vh, o, scores, att;
  std::int64_t row0 = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::int64_t rows = segments[s].rows;
    const std::int64_t start_pos = segments[s].start_pos;
    const std::int64_t len = start_pos + rows;
    const float* qkv_p = qkv.data<float>() + row0 * 3 * hd_;
    float* y1_p = y1.data<float>() + row0 * hd_;
    const KvLayerView view = kv.acquire(s);
    ZI_CHECK(view.k != nullptr && view.v != nullptr);

    // Append this segment's K/V rows to its cache at [start_pos, len):
    // packed [position, hd] — the same head-interleaved layout as the QKV
    // slices.
    for (std::int64_t t = 0; t < rows; ++t) {
      const float* krow = qkv_p + t * 3 * hd_ + hd_;
      const float* vrow = qkv_p + t * 3 * hd_ + 2 * hd_;
      std::copy(krow, krow + hd_, view.k + (start_pos + t) * hd_);
      std::copy(vrow, vrow + hd_, view.v + (start_pos + t) * hd_);
    }

    q.resize(static_cast<std::size_t>(rows * head_size_));
    kh.resize(static_cast<std::size_t>(len * head_size_));
    vh.resize(kh.size());
    o.resize(q.size());
    scores.resize(static_cast<std::size_t>(rows * len));
    att.resize(scores.size());
    for (std::int64_t h = 0; h < heads_; ++h) {
      for (std::int64_t t = 0; t < rows; ++t) {
        const float* src = qkv_p + t * 3 * hd_ + h * head_size_;
        std::copy(src, src + head_size_, q.data() + t * head_size_);
      }
      // Per-head K/V over the full causal window, from the cache (rows
      // this segment just appended included).
      for (std::int64_t t = 0; t < len; ++t) {
        const float* ks = view.k + t * hd_ + h * head_size_;
        const float* vs = view.v + t * hd_ + h * head_size_;
        std::copy(ks, ks + head_size_, kh.data() + t * head_size_);
        std::copy(vs, vs + head_size_, vh.data() + t * head_size_);
      }
      gemm_nt(q.data(), kh.data(), scores.data(), rows, head_size_, len,
              scale);
      if (rows > 1) apply_causal_mask(scores.data(), rows);  // prefill
      softmax_forward(scores.data(), att.data(), rows, len);
      gemm(att.data(), vh.data(), o.data(), rows, len, head_size_);
      for (std::int64_t t = 0; t < rows; ++t) {
        std::copy(o.data() + t * head_size_, o.data() + (t + 1) * head_size_,
                  y1_p + t * hd_ + h * head_size_);
      }
    }
    kv.release(s);
    row0 += rows;
  }
  Tensor out = proj_->run_forward(y1);
  fire_post_forward();
  return out;
}

Tensor CausalSelfAttention::backward(const Tensor& grad_output) {
  ZI_CHECK(saved_qkv_.defined() && saved_att_.defined());
  const std::int64_t tokens = saved_qkv_.dim(0);
  const std::int64_t batch = tokens / seq_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_size_));

  Tensor dy1 = proj_->run_backward(grad_output);  // [tokens, hd]
  Tensor dqkv({tokens, 3 * hd_}, DType::kF32);    // zero-initialized

  std::vector<float> q(static_cast<std::size_t>(seq_ * head_size_));
  std::vector<float> k(q.size()), v(q.size()), do_(q.size());
  std::vector<float> dq(q.size()), dk(q.size()), dv(q.size());
  std::vector<float> datt(static_cast<std::size_t>(seq_ * seq_));
  std::vector<float> dscores(datt.size());

  const float* qkv_p = saved_qkv_.data<float>();
  const float* att_p = saved_att_.data<float>();
  const float* dy1_p = dy1.data<float>();
  float* dqkv_p = dqkv.data<float>();

  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      gather_head(qkv_p, q.data(), b, h, 0, seq_, hd_, head_size_);
      gather_head(qkv_p, k.data(), b, h, 1, seq_, hd_, head_size_);
      gather_head(qkv_p, v.data(), b, h, 2, seq_, hd_, head_size_);
      for (std::int64_t t = 0; t < seq_; ++t) {
        std::copy(dy1_p + (b * seq_ + t) * hd_ + h * head_size_,
                  dy1_p + (b * seq_ + t) * hd_ + (h + 1) * head_size_,
                  do_.data() + t * head_size_);
      }
      const float* att = att_p + (b * heads_ + h) * seq_ * seq_;
      // o = att·v  ⇒  datt = do·v^T, dv = att^T·do.
      gemm_nt(do_.data(), v.data(), datt.data(), seq_, head_size_, seq_);
      gemm_tn(att, do_.data(), dv.data(), seq_, seq_, head_size_);
      // att = softmax(scores) ⇒ dscores (masked entries have att == 0, so
      // their gradient is exactly zero).
      softmax_backward(att, datt.data(), dscores.data(), seq_, seq_);
      // scores = scale · q·k^T  ⇒  dq = scale · dscores·k,
      //                            dk = scale · dscores^T·q.
      gemm(dscores.data(), k.data(), dq.data(), seq_, seq_, head_size_, scale);
      gemm_tn(dscores.data(), q.data(), dk.data(), seq_, seq_, head_size_,
              scale);
      scatter_head(dq.data(), dqkv_p, b, h, 0, seq_, hd_, head_size_);
      scatter_head(dk.data(), dqkv_p, b, h, 1, seq_, hd_, head_size_);
      scatter_head(dv.data(), dqkv_p, b, h, 2, seq_, hd_, head_size_);
    }
  }
  saved_qkv_ = Tensor();
  saved_att_ = Tensor();
  return qkv_->run_backward(dqkv);
}

void CausalSelfAttention::drop_activations() {
  saved_qkv_ = Tensor();
  saved_att_ = Tensor();
  Module::drop_activations();
}

}  // namespace zi
