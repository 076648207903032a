#include "core/coordinator.hpp"

#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/half.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zi {

void ParamCoordinator::on_post_backward(Module& m) {
  for (const auto& p : m.own_parameters()) {
    queue_grad(p.get());
    release(p.get());
  }
  for (Parameter* p : m.external_parameters()) release(p);
  if (!module_stack_.empty() && module_stack_.back() == &m) {
    module_stack_.pop_back();
  }
  if (module_stack_.empty()) flush_grads();  // the backward pass is done
}

void ParamCoordinator::ensure_grad_buffer(Parameter* p) {
  if (p->grad_tensor().defined()) return;
  ArenaBlock block = res_.gpu().allocate(
      static_cast<std::uint64_t>(p->numel()) * sizeof(float));
  std::memset(block.data(), 0,
              static_cast<std::size_t>(p->numel()) * sizeof(float));
  p->grad_tensor() = Tensor::view(p->shape(), DType::kF32, block.data());
  grad_blocks_.emplace(p->id(), std::move(block));
}

void ParamCoordinator::queue_grad(Parameter* p) {
  ZI_CHECK_MSG(p->grad_tensor().defined(),
               "no gradient accumulated for " << p->name());
  if (is_matrix(p)) flush_grads();
  ZI_TRACE_SPAN("coord", "reduce:" + p->name());
  using Clock = std::chrono::steady_clock;
  const bool timed = MetricsSink::enabled();
  const auto queue_t0 = timed ? Clock::now() : Clock::time_point{};
  const ShardSpec& spec = store_.param_spec(p);

  // fp32 accumulation happened in the grad buffer; storage/transit is fp16
  // (the mixed-precision recipe). Pad to the shard grid (the new elements
  // are zero).
  const std::size_t at = reduce_send_.size();
  reduce_send_.resize(at + static_cast<std::size_t>(spec.padded_numel()));
  const std::span<half> padded = std::span<half>(reduce_send_).subspan(at);
  floats_to_halves(p->grad_tensor().span<float>(),
                   padded.first(static_cast<std::size_t>(p->numel())));
  // Weighted shards: spread the flat gradient into equal collective slots
  // (zero tails) so the reduce-scatter stays slot-aligned and rank-order
  // deterministic (no-op for uniform specs).
  expand_to_slots<half>(spec, padded);
  queued_.push_back(p);
  p->grad_tensor() = Tensor();
  grad_blocks_.erase(p->id());
  if (timed) {
    stats_.reduce_seconds +=
        std::chrono::duration<double>(Clock::now() - queue_t0).count();
  }
}

void ParamCoordinator::flush_grads() {
  if (queued_.empty()) return;
  ZI_TRACE_SPAN("coord", "reduce:" + queued_.front()->name(),
                "\"params\":" + std::to_string(queued_.size()));
  using Clock = std::chrono::steady_clock;
  const bool timed = MetricsSink::enabled();
  const auto flush_t0 = timed ? Clock::now() : Clock::time_point{};

  std::size_t shard_elems = 0;
  for (const Parameter* p : queued_) {
    shard_elems += static_cast<std::size_t>(store_.param_spec(p).shard_elems);
  }
  reduce_shards_.resize(shard_elems);
  std::vector<std::span<half>> shards;
  std::size_t at = 0;
  for (const Parameter* p : queued_) {
    const auto n = static_cast<std::size_t>(store_.param_spec(p).shard_elems);
    shards.push_back(std::span<half>(reduce_shards_).subspan(at, n));
    at += n;
  }
  comm_.reduce_scatter_sum<half>(reduce_send_, shards);
  stats_.reduce_scatter_fp16_elems += reduce_send_.size();

  for (std::size_t m = 0; m < queued_.size(); ++m) {
    Parameter* p = queued_[m];
    if (accumulate_grads_) {
      store_.accumulate_grad_shard(p, shards[m]);
    } else {
      store_.store_grad_shard(p, shards[m]);
    }
    if (observer_) {
      DataMovementEvent ev;
      ev.kind = DataMovementEvent::Kind::kReduceScatter;
      ev.param = p->name();
      ev.tier = config_.grad_placement;
      emit(ev);
    }
    ++stats_.grads_reduced;
  }
  drop_queued_grads();
  if (timed) {
    stats_.reduce_seconds +=
        std::chrono::duration<double>(Clock::now() - flush_t0).count();
  }
}

void ParamCoordinator::drop_queued_grads() {
  queued_.clear();
  reduce_send_.clear();
}

}  // namespace zi
