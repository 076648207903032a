// DataMover — the one pipeline behind every tier transfer (Sec. 6.2/6.3).
//
// Before this layer, four subsystems each re-derived the same moves with
// bare AioStatus + pinned-lease juggling: coordinator prefetch slots, the
// optimizer's chunked NVMe pipeline, the NVMe activation offloader, and the
// state store's sync wrappers — while TierBuffer moved GPU/CPU bytes with
// raw memcpy. DataMover unifies them:
//
//   * stage(bytes)   — one pinned-or-heap staging decision (StagingLease),
//                      under the existing `pinned_acquire` fault site;
//   * fetch_/spill_* — every hop between a tier and a host buffer, async
//                      (NVMe and KV, returning a TransferHandle on a
//                      TransferScheduler ticket) or synchronous eager
//                      (memcpy routes and the *_sync NVMe helpers);
//   * per-route counters (bytes / transfers / seconds) exported into
//     StepReport, and a ZI_TRACE_SPAN on every transfer.
//
// One DataMover per rank (owned by RankResources, like the arena and the
// pinned pool); counters are relaxed atomics because rank threads and tests
// may read them while transfers complete (accountant pattern — lock-free,
// no ZI_GUARDED_BY).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>

#include "aio/nvme_store.hpp"
#include "move/sched.hpp"
#include "move/staging.hpp"
#include "move/transfer.hpp"

namespace zi {

class DataMover;

/// Completion handle for one asynchronous transfer: the scheduler ticket
/// plus the route descriptor and the mover's latency accounting.
/// Move-only so wait-latency is recorded exactly once; default-constructed
/// handles are trivially complete (the memcpy routes and empty slots).
///
/// Drop semantics: destroying a handle does NOT wait — callers that may
/// abandon an in-flight transfer keep the staging buffer alive and wait (or
/// swallow) through their own quiescence path, exactly like the
/// coordinator's take_prefetch/drop_prefetches pair.
class [[nodiscard]] TransferHandle {
 public:
  TransferHandle() = default;
  TransferHandle(TransferHandle&& o) noexcept
      : mover_(std::exchange(o.mover_, nullptr)),
        sched_(o.sched_),
        transfer_(o.transfer_),
        ticket_(std::move(o.ticket_)) {}
  TransferHandle& operator=(TransferHandle&& o) noexcept {
    if (this != &o) {
      mover_ = std::exchange(o.mover_, nullptr);
      sched_ = o.sched_;
      transfer_ = o.transfer_;
      ticket_ = std::move(o.ticket_);
    }
    return *this;
  }
  TransferHandle(const TransferHandle&) = delete;
  TransferHandle& operator=(const TransferHandle&) = delete;

  /// Block until the transfer completes; rethrows the first I/O error
  /// (RetriesExhaustedError after the engine's bounded retries). Records
  /// the route's wait latency on first completion; safe to call again.
  void wait();

  bool done() const {
    return ticket_ == nullptr || ticket_->done.load(std::memory_order_acquire);
  }
  /// done() with no error recorded.
  bool ok() const { return done() && error_code() == 0; }
  /// errno of the first failed sub-request (0 = none). Never throws.
  int error_code() const {
    return ticket_ == nullptr
               ? 0
               : ticket_->error_code.load(std::memory_order_relaxed);
  }

  const Transfer& transfer() const noexcept { return transfer_; }
  Route route() const noexcept { return transfer_.route; }
  std::uint64_t bytes() const noexcept { return transfer_.bytes; }

 private:
  friend class DataMover;
  TransferHandle(DataMover* mover, const Transfer& t, TransferScheduler* sched,
                 TransferScheduler::Ticket ticket)
      : mover_(mover), sched_(sched), transfer_(t), ticket_(std::move(ticket)) {}

  void wait_inner();

  DataMover* mover_ = nullptr;  ///< cleared once latency is recorded
  TransferScheduler* sched_ = nullptr;
  Transfer transfer_{};
  TransferScheduler::Ticket ticket_;  ///< nullptr = trivially complete
};

class DataMover {
 public:
  struct RouteStats {
    std::uint64_t bytes = 0;      ///< payload bytes moved on this route
    std::uint64_t transfers = 0;  ///< transfers issued (async + eager)
    double seconds = 0.0;         ///< copy time (eager) + wait time (async)
  };

  struct Stats {
    std::array<RouteStats, kNumRoutes> routes{};
    std::uint64_t staged_pinned = 0;  ///< stage() served by a pinned lease
    std::uint64_t staged_heap = 0;    ///< stage() fell back to heap
    /// Scheduler decision counters (preemption, starvation, queue waits).
    TransferScheduler::Stats sched{};
    const RouteStats& route(Route r) const {
      return routes[static_cast<std::size_t>(r)];
    }
    std::uint64_t total_bytes() const;
    std::uint64_t total_transfers() const;
    double total_seconds() const;
  };

  /// Tests pass a narrower scheduler config to force queueing (and, via
  /// sched(), drain the queues directly).
  DataMover(NvmeStore& nvme, PinnedBufferPool& pinned,
            TransferScheduler::Config sched_config = {});

  DataMover(const DataMover&) = delete;
  DataMover& operator=(const DataMover&) = delete;

  /// Host staging for `bytes`: a pinned-pool lease when one fits and is
  /// free (the `pinned_acquire` fault site lives inside the pool), heap
  /// otherwise. Never fails; never blocks on the pool.
  [[nodiscard]] StagingLease stage(std::size_t bytes);

  // --- NVMe routes (genuinely asynchronous) --------------------------------
  // All NVMe traffic passes through the TransferScheduler (priority
  // classes and the starvation bound), one request per transfer. The class
  // tag is the call site's knowledge of urgency: fetches default to kLatency
  // (compute usually blocks on them), spills to kBulk; the coordinator
  // downgrades speculative prefetches explicitly.

  /// extent[offset, offset+dst.size()) → dst. The destination must stay
  /// alive until the returned handle completes.
  [[nodiscard]] TransferHandle fetch_nvme(
      const Extent& extent, std::span<std::byte> dst, std::uint64_t offset = 0,
      TransferClass cls = TransferClass::kLatency);
  /// src → extent[offset, ...). The source must stay alive until the
  /// returned handle completes (the scheduler may queue it before reading).
  [[nodiscard]] TransferHandle spill_nvme(
      const Extent& extent, std::span<const std::byte> src,
      std::uint64_t offset = 0, TransferClass cls = TransferClass::kBulk);

  /// Eager variants: submit + wait without materializing a TransferHandle —
  /// the synchronous hot path (state-store eager loads, checkpoint I/O).
  /// Always latency-class: the caller is already blocked.
  void fetch_nvme_sync(const Extent& extent, std::span<std::byte> dst,
                       std::uint64_t offset = 0);
  void spill_nvme_sync(const Extent& extent, std::span<const std::byte> src,
                       std::uint64_t offset = 0);

  // --- KV-cache routes (serving decode traffic) ----------------------------
  // Same mechanics as the NVMe routes (scheduler-routed, prioritised) but
  // accounted on the dedicated kKvFetch/kKvSpill routes so weight streaming
  // and KV-cache streaming stay separable in RouteStats and StepReport. Decode fetches block compute (kLatency); appends of freshly
  // computed KV rows ride the bulk class.

  /// KV extent[offset, offset+dst.size()) → dst.
  [[nodiscard]] TransferHandle fetch_kv(
      const Extent& extent, std::span<std::byte> dst, std::uint64_t offset = 0,
      TransferClass cls = TransferClass::kLatency);
  /// src → KV extent[offset, ...).
  [[nodiscard]] TransferHandle spill_kv(
      const Extent& extent, std::span<const std::byte> src,
      std::uint64_t offset = 0, TransferClass cls = TransferClass::kBulk);

  // --- memcpy routes (GPU arena / CPU heap ↔ host buffer) ------------------
  // Complete inside the call; counted per route like everything else.

  /// tier_src[0, dst.size()) → dst on route `r` (kGpuFetch / kCpuFetch).
  void fetch_copy(Route r, std::span<std::byte> dst,
                  const std::byte* tier_src);
  /// src → tier_dst on route `r` (kGpuSpill / kCpuSpill).
  void spill_copy(Route r, std::byte* tier_dst,
                  std::span<const std::byte> src);

  /// Snapshot of the cumulative per-route counters.
  Stats stats() const;

  NvmeStore& nvme() noexcept { return nvme_; }
  PinnedBufferPool& pinned() noexcept { return pinned_; }
  /// The scheduling stage (tests drain it directly).
  TransferScheduler& sched() noexcept { return sched_; }

 private:
  friend class TransferHandle;
  /// The one async path: validate the extent range, count the transfer,
  /// hand it to the scheduler.
  TransferHandle submit(Route r, const Extent& extent, std::byte* data,
                        std::size_t bytes, std::uint64_t offset,
                        TransferClass cls);
  void note_issue(Route r, std::uint64_t bytes);
  void note_seconds(Route r, std::uint64_t ns);
  static void check_extent(const Extent& extent, std::size_t bytes,
                           std::uint64_t offset, const char* what);

  NvmeStore& nvme_;
  PinnedBufferPool& pinned_;
  NvmeSchedBackend sched_backend_;
  TransferScheduler sched_;

  struct AtomicRoute {
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> transfers{0};
    std::atomic<std::uint64_t> wait_ns{0};
  };
  std::array<AtomicRoute, kNumRoutes> routes_{};
  std::atomic<std::uint64_t> staged_pinned_{0};
  std::atomic<std::uint64_t> staged_heap_{0};
};

}  // namespace zi
