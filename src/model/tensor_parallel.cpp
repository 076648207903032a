#include "model/tensor_parallel.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace zi {

namespace {

/// Gather/scatter of one head between packed [T, 3·local_hd] QKV activations
/// and contiguous [seq, head_size] scratch (local-head layout: q|k|v each of
/// width local_hd).
void gather_head(const float* qkv, float* dst, std::int64_t b, std::int64_t h,
                 int which, std::int64_t seq, std::int64_t local_hd,
                 std::int64_t hs) {
  for (std::int64_t t = 0; t < seq; ++t) {
    const float* src = qkv + (b * seq + t) * 3 * local_hd + which * local_hd +
                       h * hs;
    std::copy(src, src + hs, dst + t * hs);
  }
}

void scatter_head(const float* src, float* dqkv, std::int64_t b,
                  std::int64_t h, int which, std::int64_t seq,
                  std::int64_t local_hd, std::int64_t hs) {
  for (std::int64_t t = 0; t < seq; ++t) {
    float* dst = dqkv + (b * seq + t) * 3 * local_hd + which * local_hd +
                 h * hs;
    const float* row = src + t * hs;
    for (std::int64_t i = 0; i < hs; ++i) dst[i] += row[i];
  }
}

std::string tp_suffix(const Communicator& tp) {
  return ".tp" + std::to_string(tp.rank());
}

}  // namespace

// ---------------------------------------------------------------------------
// TpAttention

TpAttention::TpAttention(std::string name, std::int64_t hd,
                         std::int64_t num_heads, std::int64_t seq,
                         Communicator tp)
    : Module(std::move(name)),
      hd_(hd),
      local_heads_(num_heads / tp.size()),
      local_hd_(hd / tp.size()),
      seq_(seq),
      head_size_(hd / num_heads),
      tp_(tp) {
  ZI_CHECK_MSG(num_heads % tp.size() == 0 && hd % tp.size() == 0,
               "heads/hidden not divisible by tp=" << tp.size());
  qkv_ = std::make_unique<Linear>(this->name() + ".qkv" + tp_suffix(tp_), hd_,
                                  3 * local_hd_);
  proj_ = std::make_unique<Linear>(this->name() + ".proj" + tp_suffix(tp_),
                                   local_hd_, hd_, /*bias=*/false);
  register_child(qkv_.get());
  register_child(proj_.get());
  // Replicated bias, added after the row-parallel allreduce.
  proj_bias_ = register_parameter("proj_bias", {hd_}, InitKind::kZero);
}

Tensor TpAttention::forward(const Tensor& input) {
  const std::int64_t tokens = input.dim(0);
  const std::int64_t batch = tokens / seq_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_size_));

  Tensor qkv = qkv_->run_forward(input);  // [T, 3·local_hd]
  saved_att_ = Tensor({batch * local_heads_, seq_, seq_}, DType::kF32);
  Tensor y1({tokens, local_hd_}, DType::kF32);

  std::vector<float> q(static_cast<std::size_t>(seq_ * head_size_));
  std::vector<float> k(q.size()), v(q.size()), o(q.size());
  std::vector<float> scores(static_cast<std::size_t>(seq_ * seq_));
  const float* qkv_p = qkv.data<float>();
  float* att_p = saved_att_.data<float>();
  float* y1_p = y1.data<float>();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < local_heads_; ++h) {
      gather_head(qkv_p, q.data(), b, h, 0, seq_, local_hd_, head_size_);
      gather_head(qkv_p, k.data(), b, h, 1, seq_, local_hd_, head_size_);
      gather_head(qkv_p, v.data(), b, h, 2, seq_, local_hd_, head_size_);
      gemm_nt(q.data(), k.data(), scores.data(), seq_, head_size_, seq_, scale);
      apply_causal_mask(scores.data(), seq_);
      float* att = att_p + (b * local_heads_ + h) * seq_ * seq_;
      softmax_forward(scores.data(), att, seq_, seq_);
      gemm(att, v.data(), o.data(), seq_, seq_, head_size_);
      for (std::int64_t t = 0; t < seq_; ++t) {
        std::copy(o.data() + t * head_size_, o.data() + (t + 1) * head_size_,
                  y1_p + (b * seq_ + t) * local_hd_ + h * head_size_);
      }
    }
  }
  saved_qkv_ = std::move(qkv);

  // Row-parallel output projection: local partial sums, reduced across tp.
  Tensor out = proj_->run_forward(y1);
  tp_.allreduce_sum<float>(out.span<float>());
  add_bias(out.data<float>(), proj_bias_->data(), tokens, hd_);
  return out;
}

Tensor TpAttention::backward(const Tensor& grad_output) {
  const std::int64_t tokens = saved_qkv_.dim(0);
  const std::int64_t batch = tokens / seq_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_size_));

  // Replicated bias: dy is identical on every tp rank, so the full column
  // sum is the correct (replicated) gradient.
  {
    float* db = proj_bias_->grad_data();
    const float* dy = grad_output.data<float>();
    for (std::int64_t t = 0; t < tokens; ++t) {
      for (std::int64_t j = 0; j < hd_; ++j) db[j] += dy[t * hd_ + j];
    }
  }

  Tensor dy1 = proj_->run_backward(grad_output);  // [T, local_hd]
  Tensor dqkv({tokens, 3 * local_hd_}, DType::kF32);

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
    for (std::int64_t h = 0; h < local_heads_; ++h) {
      gather_head(qkv_p, q.data(), b, h, 0, seq_, local_hd_, head_size_);
      gather_head(qkv_p, k.data(), b, h, 1, seq_, local_hd_, head_size_);
      gather_head(qkv_p, v.data(), b, h, 2, seq_, local_hd_, head_size_);
      for (std::int64_t t = 0; t < seq_; ++t) {
        std::copy(dy1_p + (b * seq_ + t) * local_hd_ + h * head_size_,
                  dy1_p + (b * seq_ + t) * local_hd_ + (h + 1) * head_size_,
                  do_.data() + t * head_size_);
      }
      const float* att = att_p + (b * local_heads_ + h) * seq_ * seq_;
      gemm_nt(do_.data(), v.data(), datt.data(), seq_, head_size_, seq_);
      gemm_tn(att, do_.data(), dv.data(), seq_, seq_, head_size_);
      softmax_backward(att, datt.data(), dscores.data(), seq_, seq_);
      gemm(dscores.data(), k.data(), dq.data(), seq_, seq_, head_size_, scale);
      gemm_tn(dscores.data(), q.data(), dk.data(), seq_, seq_, head_size_,
              scale);
      scatter_head(dq.data(), dqkv_p, b, h, 0, seq_, local_hd_, head_size_);
      scatter_head(dk.data(), dqkv_p, b, h, 1, seq_, local_hd_, head_size_);
      scatter_head(dv.data(), dqkv_p, b, h, 2, seq_, local_hd_, head_size_);
    }
  }
  saved_qkv_ = Tensor();
  saved_att_ = Tensor();

  // Column-parallel input gradient: partial dx per rank, summed across tp.
  Tensor dx = qkv_->run_backward(dqkv);
  tp_.allreduce_sum<float>(dx.span<float>());
  return dx;
}

void TpAttention::drop_activations() {
  saved_qkv_ = Tensor();
  saved_att_ = Tensor();
  Module::drop_activations();
}

// ---------------------------------------------------------------------------
// TpMlp

TpMlp::TpMlp(std::string name, std::int64_t hd, Communicator tp)
    : Module(std::move(name)),
      hd_(hd),
      local_ffn_(4 * hd / tp.size()),
      tp_(tp) {
  ZI_CHECK(4 * hd % tp.size() == 0);
  fc1_ = std::make_unique<Linear>(this->name() + ".fc1" + tp_suffix(tp_), hd_,
                                  local_ffn_);
  fc2_ = std::make_unique<Linear>(this->name() + ".fc2" + tp_suffix(tp_),
                                  local_ffn_, hd_, /*bias=*/false);
  register_child(fc1_.get());
  register_child(fc2_.get());
  fc2_bias_ = register_parameter("fc2_bias", {hd_}, InitKind::kZero);
}

Tensor TpMlp::forward(const Tensor& input) {
  Tensor h = fc1_->run_forward(input);  // [T, local_ffn]
  saved_pre_gelu_ = h.clone();
  Tensor g({h.dim(0), h.dim(1)}, DType::kF32);
  gelu_forward(h.data<float>(), g.data<float>(), h.numel());
  Tensor out = fc2_->run_forward(g);
  tp_.allreduce_sum<float>(out.span<float>());
  add_bias(out.data<float>(), fc2_bias_->data(), out.dim(0), hd_);
  return out;
}

Tensor TpMlp::backward(const Tensor& grad_output) {
  {
    float* db = fc2_bias_->grad_data();
    const float* dy = grad_output.data<float>();
    const std::int64_t tokens = grad_output.dim(0);
    for (std::int64_t t = 0; t < tokens; ++t) {
      for (std::int64_t j = 0; j < hd_; ++j) db[j] += dy[t * hd_ + j];
    }
  }
  Tensor dg = fc2_->run_backward(grad_output);  // [T, local_ffn]
  Tensor dh({dg.dim(0), dg.dim(1)}, DType::kF32);
  gelu_backward(saved_pre_gelu_.data<float>(), dg.data<float>(),
                dh.data<float>(), dg.numel());
  saved_pre_gelu_ = Tensor();
  Tensor dx = fc1_->run_backward(dh);
  tp_.allreduce_sum<float>(dx.span<float>());
  return dx;
}

void TpMlp::drop_activations() {
  saved_pre_gelu_ = Tensor();
  Module::drop_activations();
}

// ---------------------------------------------------------------------------
// TpBlock

TpBlock::TpBlock(std::string name, std::int64_t hd, std::int64_t num_heads,
                 std::int64_t seq, Communicator tp)
    : Module(std::move(name)) {
  ln1_ = std::make_unique<LayerNorm>(this->name() + ".ln1", hd);
  attn_ = std::make_unique<TpAttention>(this->name() + ".attn", hd, num_heads,
                                        seq, tp);
  ln2_ = std::make_unique<LayerNorm>(this->name() + ".ln2", hd);
  mlp_ = std::make_unique<TpMlp>(this->name() + ".mlp", hd, tp);
  register_child(ln1_.get());
  register_child(attn_.get());
  register_child(ln2_.get());
  register_child(mlp_.get());
}

Tensor TpBlock::forward(const Tensor& input) {
  Tensor a = attn_->run_forward(ln1_->run_forward(input));
  add_inplace(a.span<float>(), input.span<float>());
  Tensor m = mlp_->run_forward(ln2_->run_forward(a));
  add_inplace(m.span<float>(), a.span<float>());
  return m;
}

Tensor TpBlock::backward(const Tensor& grad_output) {
  Tensor dy = ln2_->run_backward(mlp_->run_backward(grad_output));
  add_inplace(dy.span<float>(), grad_output.span<float>());
  Tensor dx = ln1_->run_backward(attn_->run_backward(dy));
  add_inplace(dx.span<float>(), dy.span<float>());
  return dx;
}

// ---------------------------------------------------------------------------
// TpGpt

TpGpt::TpGpt(const Config& config, Communicator tp)
    : Module("tpgpt"), config_(config), tp_(tp) {
  wte_ =
      std::make_unique<Embedding>("tpgpt.wte", config_.vocab, config_.hidden);
  wpe_ = std::make_unique<Embedding>("tpgpt.wpe", config_.seq, config_.hidden,
                                     /*init_scale=*/0.01f);
  register_child(wte_.get());
  register_child(wpe_.get());
  for (std::int64_t l = 0; l < config_.layers; ++l) {
    blocks_.push_back(std::make_unique<TpBlock>(
        "tpgpt.block" + std::to_string(l), config_.hidden, config_.heads,
        config_.seq, tp_));
    register_child(blocks_.back().get());
  }
  ln_f_ = std::make_unique<LayerNorm>("tpgpt.ln_f", config_.hidden);
  register_child(ln_f_.get());
  head_ = std::make_unique<TiedLmHead>("tpgpt.lm_head", wte_->table());
  register_child(head_.get());
  finalize();
}

float TpGpt::forward_loss(std::span<const std::int32_t> tokens,
                          std::span<const std::int32_t> targets) {
  ZI_CHECK(tokens.size() == targets.size());
  const auto count = static_cast<std::int64_t>(tokens.size());
  ZI_CHECK(count % config_.seq == 0);

  Tensor x = wte_->forward_ids(tokens);
  std::vector<std::int32_t> positions(tokens.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] =
        static_cast<std::int32_t>(i % static_cast<std::size_t>(config_.seq));
  }
  Tensor pos = wpe_->forward_ids(positions);
  add_inplace(x.span<float>(), pos.span<float>());
  for (auto& block : blocks_) x = block->run_forward(x);
  x = ln_f_->run_forward(x);

  // Tied LM head on the replicated embedding (computed identically on
  // every tp rank); routed through TiedLmHead so the embedding table is
  // gathered as an external parameter under ZeRO (Sec. 7.1.1).
  Tensor logits = head_->run_forward(x);

  saved_probs_ = Tensor({count, config_.vocab}, DType::kF32);
  saved_targets_.assign(targets.begin(), targets.end());
  return cross_entropy_forward(logits.data<float>(), targets.data(),
                               saved_probs_.data<float>(), count,
                               config_.vocab);
}

void TpGpt::backward_loss(float loss_scale) {
  ZI_CHECK(saved_probs_.defined());
  const std::int64_t count = saved_probs_.dim(0);
  Tensor dlogits({count, config_.vocab}, DType::kF32);
  cross_entropy_backward(saved_probs_.data<float>(), saved_targets_.data(),
                         dlogits.data<float>(), count, config_.vocab,
                         loss_scale);
  saved_probs_ = Tensor();

  Tensor dx = head_->run_backward(dlogits);
  dx = ln_f_->run_backward(dx);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    dx = (*it)->run_backward(dx);
  }
  wpe_->backward_ids(dx);
  wte_->backward_ids(dx);
}

std::int64_t TpGpt::num_local_parameters() {
  std::int64_t n = 0;
  for (Parameter* p : all_parameters()) n += p->numel();
  return n;
}

Tensor TpGpt::forward(const Tensor&) {
  throw Error("TpGpt requires forward_loss(tokens, targets)");
}

Tensor TpGpt::backward(const Tensor&) {
  throw Error("TpGpt requires backward_loss(loss_scale)");
}

}  // namespace zi
