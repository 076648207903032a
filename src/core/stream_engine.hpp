// StreamEngine — the forward-only sibling of ZeroEngine: weight-streaming
// inference over the same tier stack (NVMe/CPU/GPU shards, pinned staging,
// overlap-centric prefetch) with zero training state.
//
// Where ZeroEngine wires a TrainableModel to a ParamCoordinator, an
// optimizer driver, and a loss scaler, StreamEngine wires a StreamableModel
// to a bare StreamCoordinator in serving mode over an inference_only
// ModelStateStore: fp16 parameter shards on their tier and nothing else —
// no master weights, no Adam moments, no gradient shards (~6x less tier
// capacity per parameter). forward_logits() streams layer weights
// tier -> GPU just ahead of compute (the traced prefetcher re-applies
// across calls because serving keeps the per-step fetch sequence stable)
// and returns next-token logits.
//
// The serving engine (src/serve) builds on this class, stacking many
// concurrent request streams into each model call so they share each
// layer's gather.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "comm/world.hpp"
#include "core/stream_coordinator.hpp"
#include "core/zero_config.hpp"
#include "model/streamable.hpp"

namespace zi {

class StreamEngine {
 public:
  /// `config` must be ZeRO stage 3 (partitioned parameters — the streaming
  /// substrate). inference_only is forced on regardless of its incoming
  /// value; prefer setting it explicitly at the call site for clarity.
  StreamEngine(StreamableModel& model, Communicator& comm, AioEngine& aio,
               EngineConfig config);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// One streamed forward pass: gathers each layer's weights just ahead of
  /// compute (prefetched from the trace after the first call), runs the
  /// model, and re-partitions. Returns logits [tokens.size(), vocab]; the
  /// caller reads its next-token row. A collective: every rank must call
  /// with identical tokens.
  Tensor forward_logits(std::span<const std::int32_t> tokens);

  /// Greedy argmax over the logits row at `row`: the next token.
  static std::int32_t argmax_row(const Tensor& logits, std::int64_t row);

  const EngineConfig& config() const noexcept { return config_; }
  RankResources& resources() noexcept { return res_; }
  ModelStateStore& state_store() noexcept { return store_; }
  StreamCoordinator& coordinator() noexcept { return *coordinator_; }
  StreamableModel& model() noexcept { return model_; }
  Communicator& comm() noexcept { return comm_; }

 private:
  static EngineConfig force_inference(EngineConfig config);

  StreamableModel& model_;
  Communicator& comm_;
  EngineConfig config_;
  RankResources res_;
  ModelStateStore store_;
  std::unique_ptr<StreamCoordinator> coordinator_;
};

}  // namespace zi
