// RankResources — the heterogeneous memory hierarchy visible to one rank.
//
// Every rank ("GPU") owns:
//   * a capacity-limited DeviceArena standing in for HBM,
//   * an NvmeStore (its slice of the node's NVMe, accessed through the
//     shared AioEngine — all ranks' swap files share the engine's worker
//     pool, which is how the aggregate-PCIe/NVMe parallelism of
//     bandwidth-centric partitioning materializes),
//   * a PinnedBufferPool for staging transfers (Sec. 6.3),
//   * a DataMover — the unified async data-movement pipeline every tier
//     transfer on this rank routes through (src/move), and
//   * a MemoryAccountant tracking bytes per tier.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "aio/aio_engine.hpp"
#include "aio/nvme_store.hpp"
#include "mem/accountant.hpp"
#include "mem/arena.hpp"
#include "mem/pinned_pool.hpp"
#include "move/data_mover.hpp"

namespace zi {

class RankResources {
 public:
  /// `nvme_dir` must exist; the swap file is created inside it.
  RankResources(int rank, AioEngine& aio, std::uint64_t gpu_arena_bytes,
                std::uint64_t nvme_capacity,
                const std::filesystem::path& nvme_dir,
                std::size_t pinned_buffer_bytes,
                std::size_t pinned_buffer_count,
                DeviceArena::Mode arena_mode = DeviceArena::Mode::kReal,
                std::uint64_t gpu_prefragment_chunk = 0,
                bool spill_on_oom = false);

  int rank() const noexcept { return rank_; }
  /// Graceful-degradation policy: when true, a TierBuffer whose home tier
  /// cannot satisfy the allocation (GPU arena OOM, NVMe swap exhaustion)
  /// falls back to the CPU tier instead of propagating OutOfMemoryError.
  /// Spills are counted in the accountant. Off by default — the capacity
  /// experiments rely on OOM being a hard signal.
  bool spill_on_oom() const noexcept { return spill_on_oom_; }
  void set_spill_on_oom(bool on) noexcept { spill_on_oom_ = on; }
  DeviceArena& gpu() noexcept { return *gpu_; }
  const DeviceArena& gpu() const noexcept { return *gpu_; }
  NvmeStore& nvme() noexcept { return *nvme_; }
  PinnedBufferPool& pinned() noexcept { return *pinned_; }
  DataMover& mover() noexcept { return *mover_; }
  const DataMover& mover() const noexcept { return *mover_; }
  MemoryAccountant& accountant() noexcept { return accountant_; }
  const MemoryAccountant& accountant() const noexcept { return accountant_; }
  AioEngine& aio() noexcept { return aio_; }

 private:
  int rank_;
  AioEngine& aio_;
  std::unique_ptr<DeviceArena> gpu_;
  std::unique_ptr<NvmeStore> nvme_;
  std::unique_ptr<PinnedBufferPool> pinned_;
  std::unique_ptr<DataMover> mover_;  // after nvme_/pinned_: refs them
  MemoryAccountant accountant_;
  bool spill_on_oom_ = false;
};

}  // namespace zi
