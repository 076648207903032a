// ZeroEngine — one rank's training engine for the whole Table 2 spectrum:
// classic data parallelism (stage 0), ZeRO-1/2 (+ ZeRO-Offload via CPU
// optimizer placement), and ZeRO-3 / ZeRO-Infinity (+ CPU/NVMe placement of
// parameters, gradients, optimizer states, and activation checkpoints).
//
// Every rank thread constructs its own model replica and engine; engines
// synchronize purely through the Communicator's collectives. Because all
// reductions are deterministic (rank-order, fp32 accumulation) and fp16
// rounding points are identical across configurations, every stage and
// placement combination produces bit-identical training trajectories —
// the property the integration tests assert.
#pragma once

#include <memory>

#include "comm/world.hpp"
#include "core/act_offload.hpp"
#include "core/coordinator.hpp"
#include "core/optimizer_driver.hpp"
#include "core/state_store.hpp"
#include "core/zero_config.hpp"
#include "model/trainable.hpp"
#include "model/local_store.hpp"
#include "optim/loss_scaler.hpp"

namespace zi {

class ZeroEngine {
 public:
  struct StepStats {
    float local_loss = 0.0f;   ///< this rank's micro-batch loss
    float global_loss = 0.0f;  ///< mean loss across ranks
    bool skipped = false;      ///< fp16 overflow → optimizer step skipped
    float loss_scale = 0.0f;   ///< scale used for this step's backward
    double grad_norm = -1.0;   ///< global grad norm (when clipping enabled)
    // Wall-clock breakdown of this rank's step (seconds).
    double fwd_seconds = 0.0;   ///< forward passes (all micro-batches)
    double bwd_seconds = 0.0;   ///< backward + gradient reduction
    double opt_seconds = 0.0;   ///< optimizer step incl. state movement
  };

  /// `model` must be constructed identically on every rank (same config →
  /// same deterministic init). The engine installs hooks / offloaders on
  /// it. Any TrainableModel architecture works — the engine itself is
  /// model-agnostic (Sec. 5.3's ease-of-use contract).
  ZeroEngine(TrainableModel& model, Communicator& comm, AioEngine& aio,
             EngineConfig config);
  ~ZeroEngine();

  ZeroEngine(const ZeroEngine&) = delete;
  ZeroEngine& operator=(const ZeroEngine&) = delete;

  /// One gradient-accumulation micro-batch: flattened [batch*seq] ids.
  struct MicroBatch {
    std::span<const std::int32_t> tokens;
    std::span<const std::int32_t> targets;
  };

  /// One full training step on this rank's micro-batch (collective: every
  /// rank must call it in lockstep).
  StepStats train_step(std::span<const std::int32_t> tokens,
                       std::span<const std::int32_t> targets);

  /// Training step with gradient accumulation: each micro-batch runs a
  /// full forward/backward and its reduced gradients accumulate into the
  /// fp16 gradient shards; the optimizer steps once at the end. Gradients
  /// are averaged over (ranks × micro-batches), so k micro-batches of size
  /// b approximate one batch of size k·b.
  StepStats train_step(std::span<const MicroBatch> micro_batches);

  /// Forward-only evaluation: returns the mean loss across ranks without
  /// touching gradients, optimizer state, or the prefetch trace.
  /// Collective.
  float eval_loss(std::span<const std::int32_t> tokens,
                  std::span<const std::int32_t> targets);

  /// Save a *universal* checkpoint: full (unpartitioned) fp16 parameters
  /// and fp32 optimizer state, assembled collectively and written by rank
  /// 0 through the async I/O engine. A checkpoint saved under any
  /// stage/placement/world configuration can be loaded under any other —
  /// partitioning is an exact transformation, so training resumes on the
  /// same trajectory. Collective.
  void save_checkpoint(const std::string& path);

  /// Restore from a universal checkpoint (collective). Step counters and
  /// the loss-scale state resume too.
  void load_checkpoint(const std::string& path);

  /// Update the Adam learning rate (LR schedules); takes effect on the
  /// next optimizer step.
  void set_learning_rate(float lr) { config_.adam.lr = lr; }

  /// Weighted data parallelism: this rank's share of the global batch
  /// (sum across ranks == 1). Replaces the uniform 1/world factor in both
  /// the backward scale and the global-loss reduction. 0 (default) keeps
  /// the legacy uniform expressions bit-for-bit.
  void set_loss_weight(double w) { loss_weight_ = w; }

  const EngineConfig& config() const noexcept { return config_; }
  RankResources& resources() noexcept { return res_; }
  ModelStateStore& state_store() noexcept { return store_; }
  const ParamCoordinator* coordinator() const noexcept {
    return coordinator_.get();
  }
  ParamCoordinator* coordinator() noexcept { return coordinator_.get(); }
  const OptimizerDriver& optimizer() const noexcept { return driver_; }
  const DynamicLossScaler& loss_scaler() const noexcept { return scaler_; }
  std::int64_t steps() const noexcept { return step_; }

  /// "GPU x (peak y) | CPU ... | NVMe ..." across the rank's tiers.
  std::string memory_summary() const;

 private:
  void reduce_replicated_grads(bool accumulate);
  /// Snapshot the counter surfaces into a StepReport and append it to the
  /// metrics sink. Callers gate on MetricsSink::enabled().
  void emit_step_report(const StepStats& st, double step_seconds);
  /// Assemble the full fp16 parameter values of `p` on every rank.
  std::vector<half> gather_full_fp16(Parameter* p);
  /// Assemble a full fp32 optimizer-state tensor from its shards.
  std::vector<float> gather_full_f32(Parameter* p, TierBuffer& shard);

  TrainableModel& model_;
  Communicator& comm_;
  EngineConfig config_;
  RankResources res_;
  ModelStateStore store_;
  std::unique_ptr<ParamCoordinator> coordinator_;  // stage 3
  std::unique_ptr<LocalParamStore> local_store_;   // stages 0-2
  ArenaBlock replicated_reservation_;  // stages 0-2: GPU footprint of the
                                       // replicated fp16+fp32 params+grads
  OptimizerDriver driver_;
  DynamicLossScaler scaler_;
  std::unique_ptr<ActivationOffloader> act_offloader_;
  std::int64_t step_ = 0;
  std::int64_t opt_step_ = 0;
  double loss_weight_ = 0.0;  ///< 0 = uniform 1/world (legacy expressions)

  /// Cumulative counter values as of the previous StepReport, so each
  /// report carries per-step deltas (comm/AIO counters are shared across
  /// ranks; each engine tracks its own baseline).
  struct CounterBase {
    std::uint64_t allgather_bytes = 0;
    std::uint64_t reduce_scatter_bytes = 0;
    std::uint64_t broadcast_bytes = 0;
    std::uint64_t allreduce_bytes = 0;
    std::uint64_t collectives = 0;
    std::uint64_t barriers = 0;
    std::uint64_t aio_bytes_read = 0;
    std::uint64_t aio_bytes_written = 0;
    std::uint64_t aio_requests = 0;
    std::uint64_t aio_retries = 0;
    std::uint64_t fetches = 0;
    std::uint64_t releases = 0;
    std::uint64_t prefetches_issued = 0;
    std::uint64_t prefetch_hits = 0;
    std::uint64_t prefetch_drops = 0;
    std::uint64_t grads_reduced = 0;
    double fetch_seconds = 0.0;
    double reduce_seconds = 0.0;
    std::uint64_t move_route_bytes[kNumRoutes] = {};
    std::uint64_t move_transfers = 0;
    double move_wait_seconds = 0.0;
    std::uint64_t staged_pinned = 0;
    std::uint64_t staged_heap = 0;
    std::uint64_t sched_preemptions = 0;
    std::uint64_t sched_queue_ns[kNumTransferClasses] = {};
    /// Per-rank heartbeat max-gap watermark at the previous report, so each
    /// report can tell whether a gap closed during its step and report the
    /// true step max instead of a point sample (see emit_step_report).
    std::vector<double> hb_gap_base;
  };
  CounterBase metrics_base_;
};

}  // namespace zi
