// ModelStateStore — the persistent model states of one rank, placed across
// the GPU/CPU/NVMe hierarchy by the infinity offload engine.
//
// Holds, per parameter:
//   * (stage 3 only) the fp16 parameter shard — the bandwidth-centric
//     1/dp slice this rank owns (Sec. 6.1);
//   * the reduced fp16 gradient shard;
// and the fp32 optimizer state (master weight, momentum, variance) as one
// flat region per state with each parameter's shard at a fixed offset —
// ZeRO's contiguous buffers (arXiv 1910.02054, Sec. 6.3).
//
// For stages 0-2 the optimizer/gradient "shards" use a world of `n` (1 for
// stage 0), while fp16 parameters stay replicated in a LocalParamStore —
// exactly the Table 2 taxonomy.
//
// Construction performs *partitioned initialization* (Sec. 7.2): each rank
// materializes only its own shard directly from the deterministic init
// function; the full parameter tensor never exists on any rank.
#pragma once

#include <memory>
#include <vector>

#include "core/partition.hpp"
#include "core/tier_buffer.hpp"
#include "core/zero_config.hpp"
#include "model/parameter.hpp"

namespace zi {

class ModelStateStore {
 public:
  /// `params` must be the finalized (id-assigned) parameter list; `world`
  /// is the data-parallel degree, `rank` this rank's index.
  ModelStateStore(RankResources& res, const EngineConfig& config,
                  const std::vector<Parameter*>& params, int rank, int world);

  // --- fp16 parameter shards (stage 3) -----------------------------------

  const ShardSpec& param_spec(const Parameter* p) const;
  /// Broadcast mode: the rank that owns parameter `p` whole.
  int param_owner(const Parameter* p) const;
  /// True when parameters are stored owner-whole (broadcast retrieval)
  /// instead of sliced across all ranks (allgather retrieval).
  bool broadcast_mode() const noexcept {
    return config_.params_partitioned() && !config_.bandwidth_centric;
  }
  /// Begin an async load of the parameter shard (NVMe: real async). The
  /// coordinator passes kBulk for speculative prefetches; the default
  /// latency class is for loads compute is about to block on.
  TransferHandle load_param_shard_async(
      const Parameter* p, std::span<half> dst,
      TransferClass cls = TransferClass::kLatency) const;
  /// Synchronous load (the hot path for non-prefetched gathers).
  void load_param_shard(const Parameter* p, std::span<half> dst) const;
  /// Overwrite the shard (post-optimizer write-back). Offset in elements.
  TransferHandle store_param_shard_async(const Parameter* p,
                                         std::span<const half> src,
                                         std::int64_t elem_offset = 0);

  /// Broadcast mode: load/store the owner's whole copy (numel elements;
  /// only valid on the owning rank).
  void load_param_full(const Parameter* p, std::span<half> dst) const;
  TransferHandle load_param_full_async(
      const Parameter* p, std::span<half> dst,
      TransferClass cls = TransferClass::kLatency) const;
  void store_param_full(const Parameter* p, std::span<const half> src);

  // --- fp16 gradient shards ----------------------------------------------

  const ShardSpec& opt_spec(const Parameter* p) const;
  void store_grad_shard(const Parameter* p, std::span<const half> src);
  /// grad_shard += src (fp32 accumulation, fp16 storage) — gradient
  /// accumulation across micro-batches.
  void accumulate_grad_shard(const Parameter* p, std::span<const half> src);
  /// Load dst.size() gradient elements starting at element `elem_offset`.
  void load_grad_shard(const Parameter* p, std::span<half> dst,
                       std::int64_t elem_offset = 0) const;

  // --- fp32 optimizer state ----------------------------------------------

  /// The flat regions: opt_elems() fp32 elements each, parameter p's shard
  /// (opt_spec(p).shard_elems elements) at element opt_offset(p).
  TierBuffer& master_region() { return checked_region(master_.get()); }
  TierBuffer& momentum_region() { return checked_region(momentum_.get()); }
  TierBuffer& variance_region() { return checked_region(variance_.get()); }
  std::int64_t opt_offset(const Parameter* p) const {
    return entry(p).opt_offset;
  }
  std::int64_t opt_elems() const noexcept { return opt_elems_; }

  /// One parameter's shard of each region.
  TierSlice master(const Parameter* p) { return slice(master_.get(), p); }
  TierSlice momentum(const Parameter* p) { return slice(momentum_.get(), p); }
  TierSlice variance(const Parameter* p) { return slice(variance_.get(), p); }

  Tier param_tier() const noexcept { return config_.param_placement; }
  Tier optimizer_tier() const noexcept { return config_.optimizer_placement; }
  int rank() const noexcept { return rank_; }
  int world() const noexcept { return world_; }
  const std::vector<Parameter*>& params() const noexcept { return params_; }

 private:
  struct Entry {
    ShardSpec param_spec;                     // world = n (stage 3)
    ShardSpec opt_spec;                       // world = n (stages 1-3) or 1
    std::int64_t opt_offset = 0;              // element offset in the regions
    std::unique_ptr<TierBuffer> param_fp16;   // stage 3 only
    std::unique_ptr<TierBuffer> grad_fp16;
  };

  const Entry& entry(const Parameter* p) const;
  /// Validated access to the fp16 parameter buffer (stage 3 slice / owner
  /// whole copy) — shared by the sync and async load paths.
  TierBuffer& param_shard_buffer(const Parameter* p) const;
  /// Validated access to the fp16 gradient shard (absent in an
  /// inference_only store).
  TierBuffer& grad_buffer(const Parameter* p) const;
  TierBuffer& param_full_buffer(const Parameter* p, std::size_t elems) const;
  /// The optimizer regions are absent in an inference_only store.
  TierBuffer& checked_region(TierBuffer* region) const;
  TierSlice slice(TierBuffer* region, const Parameter* p) const;

  RankResources& res_;
  EngineConfig config_;
  std::vector<Parameter*> params_;
  int rank_;
  int world_;
  std::vector<Entry> entries_;  // indexed by Parameter::id
  std::int64_t opt_elems_ = 0;
  std::unique_ptr<TierBuffer> master_, momentum_, variance_;
};

}  // namespace zi
