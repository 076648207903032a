// Configuration for the ZeRO family of engines.
//
// The (stage, placement) combinations reproduce Table 2 of the paper:
//
//   | Name           | Optimizer+Grad            | Parameters              |
//   | Data parallel  | GPU, replicated           | GPU, replicated         |
//   | ZeRO-2         | GPU, partitioned          | GPU, replicated         |
//   | ZeRO-Offload   | CPU, partitioned          | GPU, replicated         |
//   | ZeRO-3         | GPU, partitioned          | GPU, partitioned        |
//   | ZeRO-Inf-CPU   | CPU, partitioned          | CPU, partitioned        |
//   | ZeRO-Inf-NVMe  | NVMe, partitioned         | NVMe, partitioned       |
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mem/accountant.hpp"
#include "optim/adam.hpp"
#include "optim/loss_scaler.hpp"

namespace zi {

/// ZeRO partitioning stage (Sec. 2): which model states are partitioned
/// across data-parallel ranks instead of replicated.
enum class ZeroStage : int {
  kNone = 0,    ///< classic data parallelism (DDP baseline)
  kStage1 = 1,  ///< optimizer states partitioned
  kStage2 = 2,  ///< + gradients partitioned (reduce-scatter)
  kStage3 = 3,  ///< + parameters partitioned (gather/release per submodule)
};

/// Where a (partitioned) state tensor persists between uses.
using Placement = Tier;  // Tier::kGpu / kCpu / kNvme

struct EngineConfig {
  ZeroStage stage = ZeroStage::kStage3;

  /// Persistent home of fp16 parameter shards (stage 3) or the replicated
  /// fp16 parameters (stages 0-2; must be kGpu there, as in the paper).
  Placement param_placement = Placement::kGpu;
  /// Home of fp32 optimizer state (master weights, momentum, variance).
  Placement optimizer_placement = Placement::kGpu;
  /// Home of the reduced fp16 gradient shards. Defaults to following the
  /// optimizer placement (gradients feed the optimizer step).
  Placement grad_placement = Placement::kGpu;

  /// Activation-checkpoint offload (Sec. 5.1.2): kGpu keeps checkpoints in
  /// accelerator memory, kCpu/kNvme move them through the offload engine.
  Placement activation_placement = Placement::kGpu;

  /// Buckets of the replayed trace prefetched ahead of the consuming
  /// operator (Sec. 6.2's dynamic prefetcher). 0 disables prefetching.
  int prefetch_depth = 2;
  /// Parameters with at most this many elements stay gathered for the rest
  /// of the iteration once fetched (they are re-partitioned only at the end
  /// of the step, after the optimizer updates their shards). Saves the
  /// repeated gather/release of tiny tensors (layernorm gains/biases) that
  /// would otherwise dominate collective launch counts. 0 disables.
  std::int64_t persistence_threshold_elems = 0;
  /// Overlap shard I/O with compute. When false, every transfer is
  /// synchronous (the "overlapping off" ablation of Fig. 6d).
  bool overlap_transfers = true;

  /// Memory-centric tiling factor for the MLP linears (Sec. 5.1.3);
  /// 1 = untiled.
  int tiling_factor = 1;

  /// Bandwidth-centric partitioning (Sec. 6.1, stage 3 only). true: every
  /// parameter is sliced across ALL ranks and accessed via allgather, so
  /// each rank's PCIe/NVMe link carries 1/dp of the volume in parallel.
  /// false: the ZeRO/ZeRO-Offload baseline — each parameter is owned
  /// whole by one rank and broadcast on access, so retrieval is limited by
  /// a single link. Gradients and optimizer state remain partitioned in
  /// both modes (the contrast isolates parameter retrieval, as in the
  /// paper's Fig. 6c discussion).
  bool bandwidth_centric = true;

  /// Simulated per-GPU memory (the rank's DeviceArena capacity).
  std::uint64_t gpu_arena_bytes = 256 * kMiB;
  /// When non-zero, pre-fragment the GPU arena into chunks of this size so
  /// no contiguous allocation can exceed it — the Fig. 6b protocol, usable
  /// on the real engine to demonstrate memory-centric tiling.
  std::uint64_t gpu_prefragment_chunk = 0;
  /// Per-rank NVMe swap capacity.
  std::uint64_t nvme_capacity = 1 * kGiB;
  /// Directory for NVMe swap files.
  std::string nvme_dir = "/tmp";

  /// Pinned-buffer pool geometry (the infinity offload engine's fixed
  /// transfer-buffer budget, Sec. 6.3).
  std::size_t pinned_buffer_bytes = 1 * kMiB;
  std::size_t pinned_buffer_count = 8;

  /// Optimizer-step chunk size in elements for NVMe-resident optimizer
  /// state (Sec. 5.2.2: "bring the data from NVMe to CPU memory and back in
  /// chunks ... one chunk at a time").
  std::int64_t optimizer_chunk_elems = 1 << 15;

  AdamConfig adam;
  DynamicLossScaler::Config loss_scale;
  /// Global gradient-norm clip; 0 disables.
  float max_grad_norm = 0.0f;

  /// Relative per-rank throughput weights for heterogeneous (straggler-
  /// aware) sharding — `RankWeights` from core/partition.hpp. Empty =
  /// uniform shards. Non-empty requires stage 3 + bandwidth_centric and a
  /// size equal to the world; shard chunks are apportioned proportionally
  /// while collectives keep equal zero-padded slots, so reduction order and
  /// numerics are unchanged. The elastic supervisor fills this in when it
  /// rebalances after a straggler verdict.
  std::vector<double> rank_weights;

  /// Graceful degradation: when true, a state buffer whose home tier cannot
  /// satisfy the allocation (GPU arena OOM, NVMe swap exhaustion) spills to
  /// CPU memory instead of aborting with OutOfMemoryError. Placement does
  /// not affect numerics, so spilled runs stay bit-identical. Off by
  /// default: the capacity experiments rely on OOM being a hard signal.
  bool spill_on_oom = false;

  /// Forward-only streamed execution (the serving path, core/stream_engine
  /// + src/serve): ModelStateStore holds just the fp16 parameter shards —
  /// no master weights, no Adam moments, no gradient shards. Roughly 6x
  /// less tier capacity per parameter (2 bytes vs 2+2+12, Sec. 3). Training
  /// engines reject a config with this set.
  bool inference_only = false;

  /// True when parameters are partitioned (per-submodule gather/release).
  bool params_partitioned() const { return stage == ZeroStage::kStage3; }
  /// True when gradients are partitioned (reduce-scatter instead of
  /// allreduce).
  bool grads_partitioned() const {
    return stage == ZeroStage::kStage2 || stage == ZeroStage::kStage3;
  }
  /// True when optimizer state is partitioned.
  bool optimizer_partitioned() const { return stage != ZeroStage::kNone; }
};

/// Named presets matching Table 2 rows.
EngineConfig preset_data_parallel();
EngineConfig preset_zero1();
EngineConfig preset_zero2();
EngineConfig preset_zero_offload();
EngineConfig preset_zero3();
EngineConfig preset_zero_infinity_cpu();
EngineConfig preset_zero_infinity_nvme();

}  // namespace zi
