// ParamCoordinator — the training coordinator (Sec. 7.1): the forward-side
// streamed-execution core (stream_coordinator.hpp) plus the backward /
// gradient half.
//
// Installed as module hooks on the model tree:
//   * pre-forward / pre-backward: gather the module's parameters — load the
//     local fp16 shard from its tier (GPU/CPU/NVMe) and allgather across
//     ranks straight into one fp16 block of the rank's GPU arena, which is
//     the full compute tensor. Before backward it also allocates the full
//     fp32 gradient buffer in the arena.
//   * post-forward: re-partition (free the full tensor; the shard stays on
//     its tier untouched).
//   * post-backward: reduce-scatter the gradient into this rank's fp16
//     gradient shard, store it on the gradient tier, and free both the
//     gradient buffer and the full parameter.
//
// External parameters (Sec. 7.1.1): a module may compute with parameters it
// does not own (tied embeddings). They are gathered like any other, but
// their gradient is reduced only at the *owner's* post-backward, after all
// consumers have accumulated into it.
#pragma once

#include <unordered_map>

#include "core/stream_coordinator.hpp"

namespace zi {

class ParamCoordinator : public StreamCoordinator {
 public:
  using Stats = StreamCoordinator::Stats;

  using StreamCoordinator::StreamCoordinator;
  ~ParamCoordinator() override = default;

  /// Accumulation mode: gradient reduce-scatter results ADD into the
  /// stored gradient shards instead of overwriting them (gradient
  /// accumulation across micro-batches).
  void set_grad_accumulation(bool accumulate) { accumulate_grads_ = accumulate; }

 protected:
  /// Materialize the zero-filled fp32 gradient buffer in the GPU arena
  /// before the backward gather (no-op in the forward-only base).
  void ensure_grad_buffer(Parameter* p) override;

  /// Gradients of owned parameters are final once the owner's backward ran
  /// (every consumer of an external parameter runs after the owner in the
  /// reverse topological order), so reduce-scatter them here before the
  /// release; external parameters are merely released.
  void on_post_backward(Module& m) override;

 private:
  void reduce_and_store_grad(Parameter* p);

  bool accumulate_grads_ = false;

  // Arena blocks backing fp32 grad buffers.
  std::unordered_map<int, ArenaBlock> grad_blocks_;
};

}  // namespace zi
