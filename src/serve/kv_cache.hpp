// TieredKvCache — per-request KV state tiered through the DataMover.
//
// Serving is the second workload (after parameters and optimizer state)
// whose working set outgrows HBM: every in-flight request owns
// layers x 2 x context x kv_dim floats of attention state that is touched
// once per decode step. The cache places that state on one of three tiers:
//
//   kGpu  — resident in the device arena; views point straight at tier
//           memory, no DataMover traffic (the all-GPU control).
//   kCpu  — host-tier slabs; each layer touch is a memcpy through the
//           dedicated kKvFetch/kKvSpill routes so serving traffic stays
//           separable from weight streaming in RouteStats.
//   kNvme — one extent per request slot; layer touches are async NVMe
//           transfers on the same kKv* routes, prioritised by the
//           TransferScheduler like every other NVMe move.
//
// The working buffer is a single pinned StagingLease sized for one layer
// (K rows then V rows), acquired once and held for the cache's lifetime —
// so a fault unwinding out of a KV fetch leaves the pinned pool whole.
// acquire() waits out any outstanding spills before reusing the buffer.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/rank_resources.hpp"
#include "model/streamable.hpp"

namespace zi {

/// Where a request's KV state lives between decode steps.
enum class KvTier { kGpu, kCpu, kNvme };

/// Parse "gpu" / "cpu" / "nvme" (the ZI_SERVE_KV_TIER values); throws on
/// anything else.
KvTier parse_kv_tier(std::string_view s);
const char* kv_tier_name(KvTier t);

class TieredKvCache {
 public:
  /// `slots` independent request caches, each `layers` x (K + V) x
  /// `cap_rows` x `dim` floats. Tier capacity is allocated eagerly so
  /// admission never discovers OOM mid-request.
  TieredKvCache(RankResources& res, KvTier tier, std::int64_t layers,
                std::int64_t cap_rows, std::int64_t dim, int slots);
  ~TieredKvCache();

  TieredKvCache(const TieredKvCache&) = delete;
  TieredKvCache& operator=(const TieredKvCache&) = delete;

  /// Bring (slot, layer)'s first `used_rows` K/V rows into the working
  /// buffer and return views with room for appends up to capacity. Blocks
  /// until the fetch (and any prior spills still using the buffer)
  /// completes; used_rows == 0 skips the read entirely.
  KvLayerView acquire(int slot, std::int64_t layer, std::int64_t used_rows);

  /// Write back rows [start_row, start_row + new_rows) of the working
  /// buffer — the rows decode just appended. GPU tier: no-op (views are
  /// resident). NVMe tier: asynchronous; the working buffer stays intact
  /// until the next acquire() (which waits) or destruction.
  void release(int slot, std::int64_t layer, std::int64_t start_row,
               std::int64_t new_rows);

  /// Block until all outstanding spills have completed (rethrows the first
  /// I/O error). Idempotent.
  void wait_spills();

  KvTier tier() const noexcept { return tier_; }
  std::int64_t cap_rows() const noexcept { return cap_rows_; }
  /// Bytes of tier memory one slot occupies (layers x 2 x cap x dim x 4).
  std::uint64_t slot_bytes() const noexcept { return slot_bytes_; }

 private:
  float* scratch_floats() noexcept;
  /// Byte offset of (layer, K-or-V) within a slot's slab.
  std::uint64_t layer_offset(std::int64_t layer, bool v_half) const noexcept;

  RankResources& res_;
  KvTier tier_;
  std::int64_t layers_;
  std::int64_t cap_rows_;
  std::int64_t dim_;
  std::uint64_t layer_bytes_;  ///< one K-or-V half: cap_rows * dim * 4
  std::uint64_t slot_bytes_;

  // Exactly one of these holds the slots, by tier.
  std::vector<ArenaBlock> gpu_slots_;
  std::vector<std::vector<float>> cpu_slots_;
  std::vector<Extent> nvme_slots_;

  StagingLease scratch_;  ///< K then V for one layer; held for lifetime
  std::vector<TransferHandle> pending_spills_;  // declared after scratch_:
                                                // waited before it dies
};

}  // namespace zi
