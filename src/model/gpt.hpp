// GPT-like transformer language model (the paper's workload, Sec. 8.1:
// "We use GPT-like Transformer based models. We fix the sequence length to
// 1024 and vary the hidden dimension and number of layers to obtain models
// with different number of parameters.").
//
// The LM head shares the token-embedding weight (GPT-2 weight tying) —
// deliberately, because that is the canonical *external parameter* case of
// Sec. 7.1.1 that the ZeRO coordinator must handle across module
// boundaries.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "model/block.hpp"
#include "model/checkpoint.hpp"
#include "model/embedding.hpp"
#include "model/layernorm.hpp"
#include "model/module.hpp"
#include "model/streamable.hpp"
#include "model/trainable.hpp"

namespace zi {

struct GptConfig {
  std::int64_t vocab = 64;
  std::int64_t seq = 16;
  std::int64_t hidden = 32;
  std::int64_t layers = 2;
  std::int64_t heads = 2;
  bool tie_embeddings = true;
  /// Wrap each block in an activation checkpoint (Sec. 3: "Large models
  /// ... were all trained using activation checkpointing").
  bool checkpoint_activations = true;
  /// Optional factory so the engine can substitute memory-centric tiled
  /// linears in the MLPs.
  Mlp::LinearFactory linear_factory;

  /// 12 * nl * hd^2 — Eq. (1), the approximation the paper uses (exact
  /// counts additionally include embeddings, layernorms, and biases).
  std::int64_t approx_params() const { return 12 * layers * hidden * hidden; }
};

/// The LM head for tied embeddings: logits = x · table^T. Owns no
/// parameters; consumes the embedding table as an external parameter.
class TiedLmHead : public Module {
 public:
  TiedLmHead(std::string name, Parameter* table);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void drop_activations() override;

 private:
  Parameter* table_;  // [vocab, hidden] — external
  Tensor saved_input_;
};

class Gpt : public Module, public TrainableModel, public DecodableModel {
 public:
  explicit Gpt(const GptConfig& config);

  // TrainableModel + StreamableModel (one override satisfies both bases).
  Module& module() override { return *this; }

  /// Forward over one micro-batch: `tokens` and `targets` are flattened
  /// [batch*seq] int sequences. Returns the mean cross-entropy loss.
  float forward_loss(std::span<const std::int32_t> tokens,
                     std::span<const std::int32_t> targets) override;

  /// Inference forward: logits [tokens.size(), vocab] without a loss (for
  /// generation / scoring). Fires the same hooks as training, so it works
  /// under any ZeRO placement.
  Tensor forward_logits(std::span<const std::int32_t> tokens) override;

  // DecodableModel: per-layer incremental decode for the serving engine.
  // Requires checkpoint_activations == false (the serving path never
  // backpropagates, so wrappers would only add recompute).
  std::int64_t context_window() const override { return config_.seq; }
  std::int64_t num_decode_layers() const override { return config_.layers; }
  std::int64_t kv_dim() const override { return config_.hidden; }
  std::int64_t vocab_size() const override { return config_.vocab; }
  Tensor embed_rows(std::span<const std::int32_t> tokens,
                    std::span<const DecodeSegment> segments) override;
  Tensor decode_layer(std::int64_t layer, const Tensor& x,
                      std::span<const DecodeSegment> segments,
                      KvLender& kv) override;
  Tensor lm_logits(const Tensor& x) override;

  /// Greedy autoregressive generation: starting from `prompt`, appends
  /// tokens until `length` total. The fixed-context model slides a window
  /// of the last `seq` tokens.
  std::vector<std::int32_t> generate_greedy(
      std::span<const std::int32_t> prompt, std::int64_t length);

  /// Stochastic generation: softmax sampling with `temperature` over the
  /// `top_k` most likely tokens (top_k <= 0 means the full vocabulary).
  /// Deterministic given `seed`; temperature -> 0 recovers greedy.
  std::vector<std::int32_t> generate_sampled(
      std::span<const std::int32_t> prompt, std::int64_t length,
      float temperature, int top_k, std::uint64_t seed);

  /// Backward from the stored loss state; grads of (loss * loss_scale)
  /// accumulate into parameter grad buffers.
  void backward_loss(float loss_scale) override;

  const GptConfig& config() const noexcept { return config_; }
  Embedding& wte() noexcept { return *wte_; }
  Embedding& wpe() noexcept { return *wpe_; }

  /// Exact learnable-parameter count (vs. the Eq. 1 approximation).
  std::int64_t num_parameters();

  /// Install an activation offloader on every checkpoint wrapper.
  void set_activation_offloader(ActivationOffloader* offloader) override;

  // Tensor interface unsupported on the multi-input root.
  Tensor forward(const Tensor&) override;
  Tensor backward(const Tensor&) override;

 private:
  GptConfig config_;
  std::unique_ptr<Embedding> wte_;
  std::unique_ptr<Embedding> wpe_;
  std::vector<std::unique_ptr<Module>> blocks_;  // TransformerBlock or
                                                 // CheckpointWrapper
  std::vector<CheckpointWrapper*> wrappers_;
  // Typed block pointers for decode_layer(); filled only when
  // checkpoint_activations == false.
  std::vector<TransformerBlock*> raw_blocks_;
  std::unique_ptr<LayerNorm> ln_f_;
  std::unique_ptr<TiedLmHead> tied_head_;
  std::unique_ptr<Linear> untied_head_;

  // Saved between forward_loss and backward_loss.
  Tensor saved_probs_;  // [tokens, vocab]
  std::vector<std::int32_t> saved_targets_;
};

}  // namespace zi
