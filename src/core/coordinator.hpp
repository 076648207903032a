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
//   * post-backward: narrow the gradient into the reduce bucket's send
//     buffer and free the gradient buffer and the full parameter. A reduce
//     bucket, like a gather bucket, is one matrix plus the 1-D parameters
//     after it: the buffer is reduce-scattered with one segmented
//     collective before the next matrix's gradient joins it and when the
//     outermost backward returns, and each member's reduced fp16 shard is
//     stored on the gradient tier.
//
// External parameters (Sec. 7.1.1): a module may compute with parameters it
// does not own (tied embeddings). They are gathered like any other, but
// their gradient is reduced only at the *owner's* post-backward, after all
// consumers have accumulated into it.
#pragma once

#include <unordered_map>
#include <vector>

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

  /// Reduce-scatter the queued gradients and store their shards. Runs by
  /// itself when the outermost backward returns; a no-op when nothing is
  /// queued.
  void flush_grads();

 protected:
  /// Materialize the zero-filled fp32 gradient buffer in the GPU arena
  /// before the backward gather (no-op in the forward-only base).
  void ensure_grad_buffer(Parameter* p) override;

  /// Gradients of owned parameters are final once the owner's backward ran
  /// (every consumer of an external parameter runs after the owner in the
  /// reverse topological order), so queue them for reduction here before
  /// the release; external parameters are merely released.
  void on_post_backward(Module& m) override;

  void drop_queued_grads() override;

 private:
  /// Narrow p's gradient into the send buffer (flushing first when p is a
  /// matrix) and free the gradient buffer.
  void queue_grad(Parameter* p);

  bool accumulate_grads_ = false;

  // Arena blocks backing fp32 grad buffers.
  std::unordered_map<int, ArenaBlock> grad_blocks_;

  // The reduce bucket: queued parameters in order, their padded fp16
  // gradients back to back in the send buffer, and the reduced shards.
  // Both buffers are reused from bucket to bucket.
  std::vector<Parameter*> queued_;
  std::vector<half> reduce_send_;
  std::vector<half> reduce_shards_;
};

}  // namespace zi
