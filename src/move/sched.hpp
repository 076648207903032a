// TransferScheduler — the priority stage between DataMover submission and
// the AIO backend: NVMe traffic is issued in the order compute needs it,
// not in caller arrival order.
//
// Two mechanisms, both decided inside the scheduler:
//
//   * Priority classes. Every transfer carries a TransferClass: kLatency
//     (a fetch compute is about to block on — prefetch misses, the chunked
//     optimizer's state loads) or kBulk (spills, speculative prefetches).
//     Queued latency transfers are issued ahead of queued bulk transfers
//     sharing the `max_inflight` backend slots.
//   * Starvation bound. After `starvation_bound` consecutive latency issues
//     while bulk work waits, one bulk transfer is forced through, so spills
//     still drain when fetch traffic saturates the NVMe path.
//
// Every transfer is issued to the backend as its own request; bandwidth
// comes from the AIO engine's bulk asynchronous sub-requests, not from
// merging or throttling here.
//
// Built testable-first: the scheduler is passive (no threads of its own —
// state advances inside submit()/wait()/drain() and backend completion
// callbacks), and the backend is a virtual seam (NvmeSchedBackend in
// production, a recording fake in tests), so ordering and starvation
// decisions are asserted deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <unordered_map>

#include "aio/nvme_store.hpp"
#include "common/thread_annotations.hpp"
#include "move/transfer.hpp"

namespace zi {

/// Scheduling priority of one transfer. Tagged at the call site (the
/// coordinator and the chunked optimizer know which loads block compute);
/// DataMover defaults fetches to kLatency and spills to kBulk.
enum class TransferClass : int {
  kLatency = 0,  ///< compute blocks on this soon: issue ahead of bulk work
  kBulk = 1,     ///< spills / speculative traffic: fills leftover bandwidth
};
inline constexpr int kNumTransferClasses = 2;

/// "latency" / "bulk".
const char* transfer_class_name(TransferClass c);

/// One backend I/O as the scheduler issues it: a contiguous byte range of
/// the backing store at an absolute offset.
struct SchedOp {
  Route route = Route::kNvmeFetch;
  std::uint64_t offset = 0;  ///< absolute byte offset in the backing store
  std::byte* data = nullptr;
  std::size_t len = 0;
};

/// What the scheduler issues to. Contract: `done` must be invoked exactly
/// once when the op completes — from any thread EXCEPT synchronously inside
/// issue() itself (the scheduler holds its lock across the call; production
/// AIO completes on worker threads, test fakes complete under test
/// control).
class SchedBackend {
 public:
  virtual ~SchedBackend() = default;
  [[nodiscard]] virtual AioStatus issue(const SchedOp& op,
                                        std::function<void()> done) = 0;
};

/// Production backend: absolute-offset async I/O on the rank's NvmeStore.
class NvmeSchedBackend final : public SchedBackend {
 public:
  explicit NvmeSchedBackend(NvmeStore& store) : store_(store) {}
  [[nodiscard]] AioStatus issue(const SchedOp& op,
                                std::function<void()> done) override;

 private:
  NvmeStore& store_;
};

namespace detail {
/// Completion state of one scheduled transfer. `done`/`error_code` are
/// atomics so TransferHandle polls stay lock-free; `error` is written under
/// the owning scheduler's mutex before `done` is released and read by
/// waiters after they acquire it.
struct SchedTicket {
  std::atomic<bool> done{false};
  std::atomic<int> error_code{0};
  std::exception_ptr error;
};
}  // namespace detail

class TransferScheduler {
 public:
  /// Production uses the defaults; tests narrow them to force queueing.
  struct Config {
    /// Backend requests in flight at once. This is what gives priorities
    /// teeth: excess work queues here, where a latency fetch can still
    /// overtake it.
    std::size_t max_inflight = 4;
    /// Bulk issued at least once per this many consecutive latency issues
    /// while bulk work is queued.
    int starvation_bound = 4;
  };

  /// Cumulative decision counters, exported through DataMover::Stats into
  /// StepReport.
  struct Stats {
    std::uint64_t scheduled = 0;       ///< transfers entering the scheduler
    std::uint64_t backend_ops = 0;     ///< requests issued to the backend
    /// Always 0: transfers are never merged. Kept because the benchmark
    /// still reads it (`move.coalesced_frac`).
    std::uint64_t coalesced_transfers = 0;
    std::uint64_t preemptions = 0;     ///< latency issued ahead of queued bulk
    std::uint64_t starvation_yields = 0;  ///< bulk forced through by the bound
    std::uint64_t queue_ns[kNumTransferClasses] = {};  ///< submit→issue wait
  };

  using Ticket = std::shared_ptr<detail::SchedTicket>;

  /// `backend` must outlive the scheduler.
  TransferScheduler(SchedBackend& backend, Config config);
  /// Drains: every queued transfer is issued and every in-flight completion
  /// observed before destruction returns.
  ~TransferScheduler();

  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  /// Enqueue one transfer of the backing store's [offset, offset+len) and
  /// return its completion ticket. `data` must stay alive until the ticket
  /// completes. Zero-length transfers complete immediately.
  [[nodiscard]] Ticket submit(Route route, TransferClass cls,
                              std::uint64_t offset, std::byte* data,
                              std::size_t len) ZI_EXCLUDES(mutex_);

  /// Block until `t` completes; rethrows its I/O error, if any. Safe to
  /// call repeatedly and from multiple threads.
  void wait(const Ticket& t) ZI_EXCLUDES(mutex_);

  /// Issue everything queued and wait for every in-flight request. Errors
  /// stay recorded in their tickets.
  void drain() ZI_EXCLUDES(mutex_);

  Stats stats() const ZI_EXCLUDES(mutex_);

 private:
  struct Pending {
    SchedOp op;
    TransferClass cls = TransferClass::kBulk;
    std::uint64_t enqueue_ns = 0;
    Ticket ticket;
  };
  struct Inflight {
    Ticket ticket;
    AioStatus status;
  };

  void on_backend_done(std::uint64_t id) ZI_EXCLUDES(mutex_);
  /// Issue queued work, highest priority first, while slots are free.
  void pump() ZI_REQUIRES(mutex_);

  SchedBackend& backend_;
  const Config config_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Pending> queues_[kNumTransferClasses] ZI_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Inflight> inflight_ ZI_GUARDED_BY(mutex_);
  std::uint64_t next_op_id_ ZI_GUARDED_BY(mutex_) = 0;
  /// Consecutive latency issues with bulk work waiting (starvation bound).
  int consecutive_latency_ ZI_GUARDED_BY(mutex_) = 0;
  Stats stats_ ZI_GUARDED_BY(mutex_);
};

}  // namespace zi
