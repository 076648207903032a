// Causal multi-head self-attention.
//
// Parameters live in the two child Linear modules (QKV projection and
// output projection) so the ZeRO coordinator fetches/releases them at leaf
// granularity; the attention math itself is parameter-free.
#pragma once

#include <memory>

#include "model/linear.hpp"
#include "model/module.hpp"
#include "model/streamable.hpp"

namespace zi {

class CausalSelfAttention : public Module {
 public:
  /// hd must be divisible by num_heads; seq is the fixed sequence length
  /// (inputs are flattened [batch*seq, hd]).
  CausalSelfAttention(std::string name, std::int64_t hd, std::int64_t num_heads,
                      std::int64_t seq);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void drop_activations() override;

  /// Incremental (KV-cached) forward for serving: `input` stacks the rows
  /// of `segments` ([rows, hd]). The QKV and output projections run once
  /// over the stack; then, segment by segment, the KV view `kv` lends it
  /// receives the segment's freshly projected K/V rows at [start_pos, ...)
  /// and the segment attends causally over rows [0, start_pos + rows).
  /// Bit-identical to forward() at the corresponding rows (row-wise
  /// kernels; the softmax of a masked tail is exactly 0). Fires this
  /// module's hooks; saves nothing for backward.
  Tensor forward_kv(const Tensor& input,
                    std::span<const DecodeSegment> segments, KvLender& kv);

  Linear& qkv_proj() noexcept { return *qkv_; }
  Linear& out_proj() noexcept { return *proj_; }

 private:
  std::int64_t hd_;
  std::int64_t heads_;
  std::int64_t seq_;
  std::int64_t head_size_;
  std::unique_ptr<Linear> qkv_;   // [hd, 3hd]
  std::unique_ptr<Linear> proj_;  // [hd, hd]

  // Saved for backward: the QKV activations and the attention probabilities
  // (these dominate AWM, Eq. 5 — 16*hd from linears + 2*heads*seq from the
  // attention matrices).
  Tensor saved_qkv_;  // [batch*seq, 3hd]
  Tensor saved_att_;  // [batch*heads, seq, seq]
};

}  // namespace zi
