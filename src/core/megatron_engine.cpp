#include "core/megatron_engine.hpp"

#include "common/half.hpp"
#include "tensor/ops.hpp"

namespace zi {

MegatronEngine::Grid MegatronEngine::make_grid(Communicator& world, int tp) {
  ZI_CHECK_MSG(world.size() % tp == 0,
               "world " << world.size() << " not divisible by tp " << tp);
  Communicator tp_comm = world.split(world.rank() / tp);
  Communicator dp_comm = world.split(world.rank() % tp);
  return Grid{std::move(tp_comm), std::move(dp_comm)};
}

MegatronEngine::MegatronEngine(TrainableModel& model, Communicator& world,
                               Grid grid, MegatronConfig config)
    : model_(model),
      world_(world),
      grid_(std::move(grid)),
      config_(config),
      scaler_(config.loss_scale) {
  gpu_ = std::make_unique<DeviceArena>(
      "gpu[" + std::to_string(world.rank()) + "]", config_.gpu_arena_bytes,
      DeviceArena::Mode::kReal);
  local_store_ = std::make_unique<LocalParamStore>(model_.module());
  // Replicated local model states: fp16 params (2 B, also the compute
  // operand) + fp32 grads (4) + fp32 momentum/variance (8) per element,
  // plus 4 B for the former fp32 compute copy, kept because the pipeline
  // capacity tests are sized with it. This is the footprint that caps 3D
  // parallelism at aggregate-GPU scale.
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

MegatronEngine::StepStats MegatronEngine::train_step(
    std::span<const std::int32_t> tokens,
    std::span<const std::int32_t> targets) {
  local_store_->zero_grads();
  const float cur_scale = scaler_.scale();
  const float dp = static_cast<float>(grid_.dp.size());

  StepStats st;
  st.loss_scale = cur_scale;
  st.local_loss = model_.forward_loss(tokens, targets);
  model_.backward_loss(cur_scale / dp);

  // Gradient averaging over the data-parallel dimension only (tensor-
  // parallel slices are disjoint; replicated params have identical grads
  // on every tp rank by construction).
  const auto& params = local_store_->params();
  std::vector<std::vector<half>> grad16(params.size());
  bool overflow = false;
  for (std::size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    grad16[k].resize(static_cast<std::size_t>(p->numel()));
    floats_to_halves(p->grad_tensor().span<float>(), grad16[k]);
    grid_.dp.allreduce_sum<half>(grad16[k]);
    if (!all_finite(grad16[k])) overflow = true;
  }
  overflow = world_.allreduce_or(overflow);
  st.global_loss = static_cast<float>(
      world_.allreduce_sum_scalar(st.local_loss) / world_.size());
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
