#include "model/gpt.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace zi {

// ---------------------------------------------------------------------------
// TiedLmHead

TiedLmHead::TiedLmHead(std::string name, Parameter* table)
    : Module(std::move(name)), table_(table) {
  // Manual external-parameter registration (Sec. 7.1.1): the coordinator
  // will gather the embedding table around this module's fwd/bwd even
  // though a different module owns it.
  register_external_parameter(table_);
}

Tensor TiedLmHead::forward(const Tensor& input) {
  const std::int64_t tokens = input.dim(0);
  const std::int64_t hidden = input.dim(1);
  const std::int64_t vocab = table_->shape()[0];
  ZI_CHECK(table_->shape()[1] == hidden);
  saved_input_ = input.clone();
  Tensor logits({tokens, vocab}, DType::kF32);
  // logits = x · table^T
  gemm_nt(input.data<float>(), table_->data(), logits.data<float>(), tokens,
          hidden, vocab);
  return logits;
}

Tensor TiedLmHead::backward(const Tensor& grad_output) {
  ZI_CHECK(saved_input_.defined());
  const std::int64_t tokens = saved_input_.dim(0);
  const std::int64_t hidden = saved_input_.dim(1);
  const std::int64_t vocab = table_->shape()[0];
  Tensor grad_in({tokens, hidden}, DType::kF32);
  // dx = dlogits · table
  gemm(grad_output.data<float>(), table_->data(), grad_in.data<float>(),
       tokens, vocab, hidden);
  // dtable += dlogits^T · x
  gemm_tn(grad_output.data<float>(), saved_input_.data<float>(),
          table_->grad_data(), vocab, tokens, hidden, 1.0f, 1.0f);
  saved_input_ = Tensor();
  return grad_in;
}

void TiedLmHead::drop_activations() {
  saved_input_ = Tensor();
  Module::drop_activations();
}

// ---------------------------------------------------------------------------
// Gpt

Gpt::Gpt(const GptConfig& config) : Module("gpt"), config_(config) {
  ZI_CHECK(config_.hidden % config_.heads == 0);
  wte_ = std::make_unique<Embedding>("gpt.wte", config_.vocab, config_.hidden);
  wpe_ = std::make_unique<Embedding>("gpt.wpe", config_.seq, config_.hidden,
                                     /*init_scale=*/0.01f);
  register_child(wte_.get());
  register_child(wpe_.get());

  for (std::int64_t l = 0; l < config_.layers; ++l) {
    const std::string bname = "gpt.block" + std::to_string(l);
    auto block = std::make_unique<TransformerBlock>(
        bname, config_.hidden, config_.heads, config_.seq,
        config_.linear_factory);
    if (config_.checkpoint_activations) {
      auto wrapper = std::make_unique<CheckpointWrapper>(
          bname + ".ckpt", std::move(block), static_cast<int>(l));
      wrappers_.push_back(wrapper.get());
      blocks_.push_back(std::move(wrapper));
    } else {
      raw_blocks_.push_back(block.get());
      blocks_.push_back(std::move(block));
    }
    register_child(blocks_.back().get());
  }

  ln_f_ = std::make_unique<LayerNorm>("gpt.ln_f", config_.hidden);
  register_child(ln_f_.get());

  if (config_.tie_embeddings) {
    tied_head_ = std::make_unique<TiedLmHead>("gpt.lm_head", wte_->table());
    register_child(tied_head_.get());
  } else {
    untied_head_ = std::make_unique<Linear>("gpt.lm_head", config_.hidden,
                                            config_.vocab, /*bias=*/false);
    register_child(untied_head_.get());
  }
  finalize();
}

Tensor Gpt::forward_logits(std::span<const std::int32_t> tokens) {
  const auto count = static_cast<std::int64_t>(tokens.size());
  ZI_CHECK_MSG(count > 0, "forward_logits on an empty token span");
  // Serving prompts arrive at arbitrary lengths; the attention kernel
  // works in whole context windows. Pad the tail sequence with token 0 —
  // causal masking keeps the logits of the first `count` rows bit-identical
  // to any other tail content — and slice the padding off at the end.
  std::span<const std::int32_t> run_tokens = tokens;
  std::vector<std::int32_t> padded;
  if (count % config_.seq != 0) {
    const auto padded_count =
        static_cast<std::size_t>(((count / config_.seq) + 1) * config_.seq);
    padded.assign(tokens.begin(), tokens.end());
    padded.resize(padded_count, 0);
    run_tokens = padded;
  }

  // Token + position embeddings.
  Tensor x = wte_->forward_ids(run_tokens);
  std::vector<std::int32_t> positions(run_tokens.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<std::int32_t>(i % static_cast<std::size_t>(config_.seq));
  }
  Tensor pos = wpe_->forward_ids(positions);
  add_inplace(x.span<float>(), pos.span<float>());

  for (auto& block : blocks_) x = block->run_forward(x);
  x = ln_f_->run_forward(x);
  Tensor logits = config_.tie_embeddings ? tied_head_->run_forward(x)
                                         : untied_head_->run_forward(x);
  if (run_tokens.size() == tokens.size()) return logits;
  Tensor sliced({count, config_.vocab}, DType::kF32);
  const auto keep = static_cast<std::size_t>(count * config_.vocab);
  std::copy(logits.data<float>(), logits.data<float>() + keep,
            sliced.data<float>());
  return sliced;
}

Tensor Gpt::embed_rows(std::span<const std::int32_t> tokens,
                       std::span<const DecodeSegment> segments) {
  std::vector<std::int32_t> positions;
  positions.reserve(tokens.size());
  for (const DecodeSegment& seg : segments) {
    ZI_CHECK_MSG(seg.start_pos >= 0 && seg.start_pos + seg.rows <= config_.seq,
                 "decode rows [" << seg.start_pos << ", "
                                 << (seg.start_pos + seg.rows)
                                 << ") exceed the context window "
                                 << config_.seq);
    for (std::int64_t r = 0; r < seg.rows; ++r) {
      positions.push_back(static_cast<std::int32_t>(seg.start_pos + r));
    }
  }
  ZI_CHECK_MSG(positions.size() == tokens.size(),
               "embed_rows: " << tokens.size() << " tokens for "
                              << positions.size() << " segment rows");
  Tensor x = wte_->forward_ids(tokens);
  Tensor pos = wpe_->forward_ids(positions);
  add_inplace(x.span<float>(), pos.span<float>());
  return x;
}

Tensor Gpt::decode_layer(std::int64_t layer, const Tensor& x,
                         std::span<const DecodeSegment> segments,
                         KvLender& kv) {
  ZI_CHECK_MSG(!raw_blocks_.empty(),
               "decode_layer requires checkpoint_activations=false");
  ZI_CHECK(layer >= 0 &&
           layer < static_cast<std::int64_t>(raw_blocks_.size()));
  return raw_blocks_[static_cast<std::size_t>(layer)]->forward_kv(
      x, segments, kv);
}

Tensor Gpt::lm_logits(const Tensor& x) {
  Tensor y = ln_f_->run_forward(x);
  return config_.tie_embeddings ? tied_head_->run_forward(y)
                                : untied_head_->run_forward(y);
}

float Gpt::forward_loss(std::span<const std::int32_t> tokens,
                        std::span<const std::int32_t> targets) {
  ZI_CHECK(tokens.size() == targets.size());
  const auto count = static_cast<std::int64_t>(tokens.size());
  // Training (and its backward over the saved activations) works in whole
  // context windows — only the forward-only logits path may pad.
  ZI_CHECK_MSG(count > 0 && count % config_.seq == 0,
               "forward_loss token count " << count
                                           << " is not a positive multiple of "
                                              "the context window "
                                           << config_.seq);
  // Cross-entropy indexes a probability row by target, so check targets
  // before anything runs (token ids are checked by the embedding).
  for (const std::int32_t t : targets) {
    ZI_CHECK_MSG(t >= 0 && t < config_.vocab,
                 "target " << t << " out of vocab " << config_.vocab);
  }
  Tensor logits = forward_logits(tokens);

  saved_probs_ = Tensor({count, config_.vocab}, DType::kF32);
  saved_targets_.assign(targets.begin(), targets.end());
  return cross_entropy_forward(logits.data<float>(), targets.data(),
                               saved_probs_.data<float>(), count,
                               config_.vocab);
}

namespace {
/// Shared sliding-window next-token loop; `pick` maps the logits row at
/// the last real position to the chosen token.
template <typename PickFn>
std::vector<std::int32_t> generate_loop(Gpt& model, std::int64_t seq,
                                        std::span<const std::int32_t> prompt,
                                        std::int64_t length, PickFn&& pick) {
  ZI_CHECK(!prompt.empty() &&
           static_cast<std::int64_t>(prompt.size()) <= length);
  std::vector<std::int32_t> out(prompt.begin(), prompt.end());
  std::vector<std::int32_t> window(static_cast<std::size_t>(seq), 0);
  while (static_cast<std::int64_t>(out.size()) < length) {
    const auto have = static_cast<std::int64_t>(out.size());
    const std::int64_t start = std::max<std::int64_t>(0, have - seq);
    const std::int64_t used = have - start;
    std::fill(window.begin(), window.end(), 0);
    std::copy(out.begin() + start, out.end(), window.begin());
    Tensor logits = model.forward_logits(window);
    const float* row =
        logits.data<float>() + (used - 1) * logits.dim(1);
    out.push_back(pick(row, logits.dim(1)));
  }
  return out;
}
}  // namespace

std::vector<std::int32_t> Gpt::generate_sampled(
    std::span<const std::int32_t> prompt, std::int64_t length,
    float temperature, int top_k, std::uint64_t seed) {
  if (temperature <= 1e-6f) return generate_greedy(prompt, length);
  Rng rng(seed, 0xABCD);
  return generate_loop(
      *this, config_.seq, prompt, length,
      [&](const float* row, std::int64_t vocab) -> std::int32_t {
        // Rank tokens by logit, keep the top k, softmax at `temperature`.
        std::vector<std::int32_t> order(static_cast<std::size_t>(vocab));
        for (std::int64_t v = 0; v < vocab; ++v) {
          order[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(v);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::int32_t a, std::int32_t b) {
                    return row[a] > row[b];
                  });
        const std::size_t k = top_k > 0
                                  ? std::min<std::size_t>(
                                        static_cast<std::size_t>(top_k),
                                        order.size())
                                  : order.size();
        std::vector<double> probs(k);
        double sum = 0.0;
        const float max_logit = row[order[0]];
        for (std::size_t i = 0; i < k; ++i) {
          probs[i] = std::exp((row[order[i]] - max_logit) / temperature);
          sum += probs[i];
        }
        double u = rng.next_uniform() * sum;
        for (std::size_t i = 0; i < k; ++i) {
          u -= probs[i];
          if (u <= 0.0) return order[i];
        }
        return order[k - 1];
      });
}

std::vector<std::int32_t> Gpt::generate_greedy(
    std::span<const std::int32_t> prompt, std::int64_t length) {
  ZI_CHECK(!prompt.empty() &&
           static_cast<std::int64_t>(prompt.size()) <= length);
  std::vector<std::int32_t> out(prompt.begin(), prompt.end());
  std::vector<std::int32_t> window(static_cast<std::size_t>(config_.seq), 0);
  while (static_cast<std::int64_t>(out.size()) < length) {
    // Slide the last `seq` tokens into the fixed context window. Real
    // tokens sit at positions 0..used-1 (matching the positions they had
    // in training); the right padding is never attended to thanks to
    // causal masking, and the next token is read at position used-1.
    const auto have = static_cast<std::int64_t>(out.size());
    const std::int64_t start = std::max<std::int64_t>(0, have - config_.seq);
    const std::int64_t used = have - start;
    std::fill(window.begin(), window.end(), 0);
    std::copy(out.begin() + start, out.end(), window.begin());
    Tensor logits = forward_logits(window);
    // argmax over the vocab at the last real position.
    const float* row = logits.data<float>() + (used - 1) * config_.vocab;
    std::int32_t best = 0;
    for (std::int64_t v = 1; v < config_.vocab; ++v) {
      if (row[v] > row[best]) best = static_cast<std::int32_t>(v);
    }
    out.push_back(best);
  }
  return out;
}

void Gpt::backward_loss(float loss_scale) {
  ZI_CHECK_MSG(saved_probs_.defined(), "backward_loss before forward_loss");
  const std::int64_t count = saved_probs_.dim(0);
  Tensor dlogits({count, config_.vocab}, DType::kF32);
  cross_entropy_backward(saved_probs_.data<float>(), saved_targets_.data(),
                         dlogits.data<float>(), count, config_.vocab,
                         loss_scale);
  saved_probs_ = Tensor();

  Tensor dx = config_.tie_embeddings ? tied_head_->run_backward(dlogits)
                                     : untied_head_->run_backward(dlogits);
  dx = ln_f_->run_backward(dx);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    dx = (*it)->run_backward(dx);
  }
  // dx feeds both embeddings (x = wte + wpe).
  wpe_->backward_ids(dx);
  wte_->backward_ids(dx);
}

std::int64_t Gpt::num_parameters() {
  std::int64_t n = 0;
  for (Parameter* p : all_parameters()) n += p->numel();
  return n;
}

void Gpt::set_activation_offloader(ActivationOffloader* offloader) {
  for (CheckpointWrapper* w : wrappers_) w->set_offloader(offloader);
}

Tensor Gpt::forward(const Tensor&) {
  throw Error("Gpt requires forward_loss(tokens, targets)");
}

Tensor Gpt::backward(const Tensor&) {
  throw Error("Gpt requires backward_loss(loss_scale)");
}

}  // namespace zi
