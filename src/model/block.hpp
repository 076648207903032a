// Pre-LayerNorm transformer block (GPT-2 style):
//   y = x + Attention(LN1(x));  z = y + MLP(LN2(y)).
#pragma once

#include <memory>

#include "model/attention.hpp"
#include "model/layernorm.hpp"
#include "model/mlp.hpp"
#include "model/module.hpp"

namespace zi {

class TransformerBlock : public Module {
 public:
  TransformerBlock(std::string name, std::int64_t hd, std::int64_t num_heads,
                   std::int64_t seq,
                   const Mlp::LinearFactory& linear_factory = nullptr);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Incremental (KV-cached) forward for serving over the stacked rows of
  /// `segments`: the same residual wiring as forward(), with the attention
  /// stage reading/appending each segment's KV cache. Fires hooks; saves
  /// nothing for backward.
  Tensor forward_kv(const Tensor& input,
                    std::span<const DecodeSegment> segments, KvLender& kv);

  CausalSelfAttention& attention() noexcept { return *attn_; }
  Mlp& mlp() noexcept { return *mlp_; }

 private:
  std::unique_ptr<LayerNorm> ln1_;
  std::unique_ptr<CausalSelfAttention> attn_;
  std::unique_ptr<LayerNorm> ln2_;
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace zi
