// OptimizerDriver — the partitioned, placement-aware optimizer step
// (Sec. 5.2.2 "Efficiency w.r.t Optimizer States").
//
// Each rank updates only the state it owns: the flat master, momentum and
// variance regions of its ModelStateStore. Placement:
//   * GPU / CPU tier: the regions are directly addressable; fused Adam runs
//     in place over each parameter's slice.
//   * NVMe tier: state is brought "from NVMe to CPU memory and back in
//     chunks that can fit in the CPU memory ... one chunk at a time". One
//     DoubleBufferPipeline sweeps the regions in chunks that cross
//     parameter boundaries: each chunk is one read and one write per state,
//     overlapped with its neighbours' I/O; the fp16 gradient read and
//     parameter write-back go per parameter segment. The two chunk buffers
//     live as long as the driver.
//
// Adam is per element and the overflow check and clip coefficient are
// settled before the step, so no chunking moves a bit. The driver also
// owns overflow detection and the gradient-norm contribution for clipping.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "core/state_store.hpp"
#include "core/zero_config.hpp"
#include "move/pipeline.hpp"

namespace zi {

class OptimizerDriver {
 public:
  struct Stats {
    std::uint64_t steps = 0;
    std::uint64_t chunks_pipelined = 0;  ///< NVMe chunks processed
  };

  using UpdatedFp16Fn =
      std::function<void(Parameter*, std::span<const half>)>;

  OptimizerDriver(ModelStateStore& store, const EngineConfig& config);

  /// True if any gradient shard on this rank contains Inf/NaN (local —
  /// the engine ORs across ranks).
  bool local_overflow() const;

  /// Sum over this rank's shards of (grad / grad_scale)^2.
  double local_grad_sqnorm(float grad_scale) const;

  /// Run Adam over every shard. Each updated fp16 shard goes to
  /// `on_updated` when set (to rebuild whole parameters), else back into
  /// the partitioned parameter store (stage 3).
  void step(std::int64_t step_num, float grad_scale, float clip_coef,
            const UpdatedFp16Fn& on_updated);

  const Stats& stats() const noexcept { return stats_; }

 private:
  /// One parameter's shard in the flat regions: elements
  /// [offset, offset + elems).
  struct Segment {
    Parameter* p;
    std::int64_t offset;
    std::int64_t elems;
  };
  /// One NVMe chunk's host copy of the state and its in-flight transfers.
  struct ChunkBuf {
    std::array<std::vector<float>, 3> state;  ///< master, momentum, variance
    std::vector<half> grad16, updated16;
    std::vector<TransferHandle> loads, stores;
  };

  void step_direct(std::int64_t step_num, float grad_scale, float clip_coef,
                   const UpdatedFp16Fn& on_updated);
  void step_chunked_nvme(std::int64_t step_num, float grad_scale,
                         float clip_coef);

  ModelStateStore& store_;
  const EngineConfig& config_;  // reference: LR schedule updates propagate
  const std::int64_t chunk_elems_;
  std::vector<Segment> segments_;  ///< in region order
  DoubleBufferPipeline<ChunkBuf> pipeline_;
  std::vector<half> grad16_, updated16_;  ///< direct path, one parameter
  Stats stats_;
};

}  // namespace zi
