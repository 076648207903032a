#include "core/threed_engine.hpp"

#include "common/half.hpp"
#include "tensor/ops.hpp"

namespace zi {

ThreeDEngine::ThreeDEngine(const GptConfig& model_config, Communicator& world,
                           ThreeDConfig config)
    : world_(world),
      config_(config),
      model_config_(model_config),
      scaler_(config.loss_scale) {
  const int tp = config_.tp;
  const int pp = config_.pp;
  ZI_CHECK_MSG(world.size() % (tp * pp) == 0,
               "world " << world.size() << " not divisible by tp*pp = "
                        << tp * pp);
  ZI_CHECK_MSG(!model_config_.tie_embeddings,
               "pipeline stages cannot tie embeddings across stages — use "
               "tie_embeddings = false (the usability cost Sec. 2 notes)");

  const int r = world.rank();
  const int tp_idx = r % tp;
  const int pp_idx = (r / tp) % pp;
  const int dp_idx = r / (tp * pp);
  // Orthogonal subgroups (three lockstep splits).
  tp_ = std::make_unique<Communicator>(world.split(r / tp));
  pp_ = std::make_unique<Communicator>(world.split(dp_idx * tp + tp_idx));
  dp_ = std::make_unique<Communicator>(world.split(pp_idx * tp + tp_idx));
  ZI_CHECK(tp_->rank() == tp_idx && pp_->rank() == pp_idx &&
           dp_->rank() == dp_idx);

  stage_ = std::make_unique<PipelineStage>(
      model_config_, pp_idx, pp,
      tp > 1 ? std::optional<Communicator>(*tp_) : std::nullopt);

  gpu_ = std::make_unique<DeviceArena>("gpu[" + std::to_string(r) + "]",
                                       config_.gpu_arena_bytes,
                                       DeviceArena::Mode::kReal);
  local_store_ = std::make_unique<LocalParamStore>(*stage_);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(local_store_->total_numel()) *
      (2 + 4 + 4 + 8);
  reservation_ = gpu_->allocate(bytes);
  for (Parameter* p : local_store_->params()) {
    // Master weights start from the fp16-rounded initialization (matching
    // the ZeRO engines) and keep full fp32 precision thereafter.
    master_.emplace_back(static_cast<std::size_t>(p->numel()));
    halves_to_floats(local_store_->fp16(p).span<half>(), master_.back());
    momentum_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
    variance_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
  }
}

ThreeDEngine::StepStats ThreeDEngine::train_step(
    std::span<const std::int32_t> tokens,
    std::span<const std::int32_t> targets) {
  local_store_->zero_grads();
  const float cur_scale = scaler_.scale();
  const float dp = static_cast<float>(dp_->size());
  const auto count = static_cast<std::int64_t>(tokens.size());
  const std::int64_t hidden = model_config_.hidden;

  // --- forward: activations flow down the pipeline ------------------------
  Tensor x;
  if (stage_->is_first()) {
    x = stage_->embed(tokens);
  } else {
    x = Tensor({count, hidden}, DType::kF32);
    pp_->recv(x.span<float>(), pp_->rank() - 1, /*tag=*/1);
  }
  Tensor y = stage_->forward(x);
  float local_loss = 0.0f;
  Tensor probs;
  if (!stage_->is_last()) {
    pp_->send(std::span<const float>(y.span<float>()), pp_->rank() + 1, 1);
  } else {
    Tensor logits = stage_->head(y);
    probs = Tensor({count, model_config_.vocab}, DType::kF32);
    local_loss =
        cross_entropy_forward(logits.data<float>(), targets.data(),
                              probs.data<float>(), count, model_config_.vocab);
  }

  // --- backward: gradients flow back up ------------------------------------
  Tensor d;
  if (stage_->is_last()) {
    Tensor dlogits({count, model_config_.vocab}, DType::kF32);
    cross_entropy_backward(probs.data<float>(), targets.data(),
                           dlogits.data<float>(), count, model_config_.vocab,
                           cur_scale / dp);
    d = stage_->head_backward(dlogits);
  } else {
    d = Tensor({count, hidden}, DType::kF32);
    pp_->recv(d.span<float>(), pp_->rank() + 1, /*tag=*/2);
  }
  Tensor dx = stage_->backward(d);
  if (stage_->is_first()) {
    stage_->embed_backward(dx);
  } else {
    pp_->send(std::span<const float>(dx.span<float>()), pp_->rank() - 1, 2);
  }

  // --- gradient averaging over dp + overflow + optimizer ------------------
  const auto& params = local_store_->params();
  std::vector<std::vector<half>> grad16(params.size());
  bool overflow = false;
  for (std::size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    grad16[k].resize(static_cast<std::size_t>(p->numel()));
    floats_to_halves(p->grad_tensor().span<float>(), grad16[k]);
    dp_->allreduce_sum<half>(grad16[k]);
    if (!all_finite(grad16[k])) overflow = true;
  }
  overflow = world_.allreduce_or(overflow);

  StepStats st;
  st.loss_scale = cur_scale;
  // The last stage knows the replica loss; share it down the pipeline,
  // then average across replicas (tp ranks hold identical values).
  std::vector<float> loss_buf = {local_loss};
  pp_->broadcast<float>(loss_buf, pp_->size() - 1);
  st.global_loss = static_cast<float>(
      dp_->allreduce_sum_scalar(loss_buf[0]) / dp_->size());
  st.skipped = scaler_.update(overflow);
  if (st.skipped) return st;

  ++opt_step_;
  for (std::size_t k = 0; k < params.size(); ++k) {
    fused_adam_step(config_.adam, opt_step_, master_[k], momentum_[k],
                    variance_[k], grad16[k],
                    local_store_->fp16(params[k]).span<half>(), cur_scale);
  }
  return st;
}

}  // namespace zi
