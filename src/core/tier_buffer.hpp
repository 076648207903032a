// TierBuffer — a fixed-size byte buffer resident on one memory tier.
//
// The unit of storage the infinity offload engine moves around. GPU-tier
// buffers live in the rank's DeviceArena (so capacity pressure is real);
// CPU-tier buffers are host heap; NVMe-tier buffers are extents in the
// rank's swap file, transferred through the async engine via the pinned
// buffer pool. load/store have async variants that are genuinely
// asynchronous on the NVMe tier — this is what the prefetcher and the
// chunked optimizer pipeline overlap against compute.
//
// All byte movement — including the GPU/CPU memcpy paths — routes through
// the rank's DataMover, so every transfer is bounds-checked (typed
// BoundsError, overflow-safe), traced, and counted per route.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aio/nvme_store.hpp"
#include "core/rank_resources.hpp"
#include "move/data_mover.hpp"

namespace zi {

class TierBuffer {
 public:
  TierBuffer(RankResources& res, Tier tier, std::uint64_t bytes);
  ~TierBuffer();

  TierBuffer(TierBuffer&& o) noexcept
      : res_(o.res_),
        tier_(o.tier_),
        requested_tier_(o.requested_tier_),
        bytes_(o.bytes_),
        gpu_block_(std::move(o.gpu_block_)),
        cpu_(std::move(o.cpu_)),
        extent_(std::move(o.extent_)) {
    o.res_ = nullptr;  // moved-from buffer no longer owns the accounting
  }
  TierBuffer& operator=(TierBuffer&&) = delete;
  TierBuffer(const TierBuffer&) = delete;
  TierBuffer& operator=(const TierBuffer&) = delete;

  /// Tier the buffer actually lives on (may differ from the requested tier
  /// after a spill; see RankResources::spill_on_oom()).
  Tier tier() const noexcept { return tier_; }
  Tier requested_tier() const noexcept { return requested_tier_; }
  bool spilled() const noexcept { return tier_ != requested_tier_; }
  std::uint64_t size() const noexcept { return bytes_; }

  /// Direct pointer for in-place access; nullptr on the NVMe tier.
  std::byte* data() noexcept;
  const std::byte* data() const noexcept;

  /// Copy `src` into the buffer at byte `offset` (synchronous: the async
  /// variant at latency class, waited).
  void store(std::span<const std::byte> src, std::uint64_t offset = 0);
  /// Copy dst.size() bytes out of the buffer starting at `offset`.
  void load(std::span<std::byte> dst, std::uint64_t offset = 0) const;

  /// Async variants: complete immediately for GPU/CPU tiers, return a real
  /// in-flight handle for NVMe. The caller's span must outlive the handle.
  /// `cls` is the scheduling class of the NVMe transfer — callers that
  /// issue speculatively (prefetch) pass kBulk; callers about to block
  /// keep the latency default.
  TransferHandle store_async(std::span<const std::byte> src,
                             std::uint64_t offset = 0,
                             TransferClass cls = TransferClass::kBulk);
  TransferHandle load_async(std::span<std::byte> dst, std::uint64_t offset = 0,
                            TransferClass cls = TransferClass::kLatency) const;

 private:
  RankResources* res_;
  Tier tier_;
  Tier requested_tier_;
  std::uint64_t bytes_;
  ArenaBlock gpu_block_;          // kGpu
  std::vector<std::byte> cpu_;    // kCpu
  Extent extent_;                 // kNvme
};

/// A fixed byte range of a TierBuffer — one parameter's shard of a flat
/// optimizer-state region (core/state_store.hpp).
class TierSlice {
 public:
  /// The bytes [offset, offset + bytes) of `buf`, which must outlive the
  /// slice. Throws BoundsError if the range does not fit.
  TierSlice(TierBuffer& buf, std::uint64_t offset, std::uint64_t bytes);

  /// As TierBuffer::store/load, with `offset` relative to the slice.
  void store(std::span<const std::byte> src, std::uint64_t offset = 0);
  void load(std::span<std::byte> dst, std::uint64_t offset = 0) const;

 private:
  TierBuffer* buf_;
  std::uint64_t offset_;
  std::uint64_t bytes_;
};

}  // namespace zi
