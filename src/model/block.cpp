#include "model/block.hpp"

#include "tensor/ops.hpp"

namespace zi {

TransformerBlock::TransformerBlock(std::string name, std::int64_t hd,
                                   std::int64_t num_heads, std::int64_t seq,
                                   const Mlp::LinearFactory& linear_factory)
    : Module(std::move(name)) {
  ln1_ = std::make_unique<LayerNorm>(this->name() + ".ln1", hd);
  attn_ = std::make_unique<CausalSelfAttention>(this->name() + ".attn", hd,
                                                num_heads, seq);
  ln2_ = std::make_unique<LayerNorm>(this->name() + ".ln2", hd);
  mlp_ = std::make_unique<Mlp>(this->name() + ".mlp", hd, linear_factory);
  register_child(ln1_.get());
  register_child(attn_.get());
  register_child(ln2_.get());
  register_child(mlp_.get());
}

Tensor TransformerBlock::forward(const Tensor& input) {
  // y = x + attn(ln1(x))
  Tensor a = attn_->run_forward(ln1_->run_forward(input));
  add_inplace(a.span<float>(), input.span<float>());
  // z = y + mlp(ln2(y))
  Tensor m = mlp_->run_forward(ln2_->run_forward(a));
  add_inplace(m.span<float>(), a.span<float>());
  return m;
}

Tensor TransformerBlock::forward_kv(const Tensor& input,
                                    std::span<const DecodeSegment> segments,
                                    KvLender& kv) {
  fire_pre_forward();
  // y = x + attn(ln1(x)), attention against each request's KV cache.
  Tensor a = attn_->forward_kv(ln1_->run_forward(input), segments, kv);
  add_inplace(a.span<float>(), input.span<float>());
  // z = y + mlp(ln2(y))
  Tensor m = mlp_->run_forward(ln2_->run_forward(a));
  add_inplace(m.span<float>(), a.span<float>());
  // No backward follows: free what the children saved for one.
  drop_activations();
  fire_post_forward();
  return m;
}

Tensor TransformerBlock::backward(const Tensor& grad_output) {
  // z = y + mlp(ln2(y)): dy = dz + ln2·mlp chain.
  Tensor dy = ln2_->run_backward(mlp_->run_backward(grad_output));
  add_inplace(dy.span<float>(), grad_output.span<float>());
  // y = x + attn(ln1(x)): dx = dy + ln1·attn chain.
  Tensor dx = ln1_->run_backward(attn_->run_backward(dy));
  add_inplace(dx.span<float>(), dy.span<float>());
  return dx;
}

}  // namespace zi
