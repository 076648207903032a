#include "move/sched.hpp"

#include <chrono>
#include <span>

#include "common/error.hpp"

namespace zi {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* transfer_class_name(TransferClass c) {
  return c == TransferClass::kLatency ? "latency" : "bulk";
}

AioStatus NvmeSchedBackend::issue(const SchedOp& op,
                                  std::function<void()> done) {
  if (route_is_spill(op.route)) {
    return store_.write_abs_async(
        op.offset, std::span<const std::byte>(op.data, op.len),
        std::move(done));
  }
  return store_.read_abs_async(op.offset, std::span<std::byte>(op.data, op.len),
                               std::move(done));
}

TransferScheduler::TransferScheduler(SchedBackend& backend, Config config)
    : backend_(backend), config_(config) {
  ZI_CHECK(config_.max_inflight > 0);
  ZI_CHECK(config_.starvation_bound > 0);
}

TransferScheduler::~TransferScheduler() { drain(); }

TransferScheduler::Ticket TransferScheduler::submit(Route route,
                                                    TransferClass cls,
                                                    std::uint64_t offset,
                                                    std::byte* data,
                                                    std::size_t len) {
  auto ticket = std::make_shared<detail::SchedTicket>();
  if (len == 0) {
    ticket->done.store(true, std::memory_order_release);
    return ticket;
  }
  ZI_CHECK(data != nullptr);
  LockGuard lock(mutex_);
  ++stats_.scheduled;
  queues_[static_cast<std::size_t>(cls)].push_back(
      Pending{SchedOp{route, offset, data, len}, cls, steady_now_ns(), ticket});
  pump();
  return ticket;
}

void TransferScheduler::wait(const Ticket& t) {
  ZI_CHECK(t != nullptr);
  std::exception_ptr error;
  {
    // A queued ticket implies every backend slot is busy, so a completion
    // callback is always coming to pump it.
    UniqueLock lock(mutex_);
    while (!t->done.load(std::memory_order_acquire)) cv_.wait(lock);
    error = t->error;
  }
  if (error) std::rethrow_exception(error);
}

void TransferScheduler::drain() {
  UniqueLock lock(mutex_);
  while (!queues_[0].empty() || !queues_[1].empty() || !inflight_.empty()) {
    cv_.wait(lock);
  }
}

TransferScheduler::Stats TransferScheduler::stats() const {
  LockGuard lock(mutex_);
  return stats_;
}

void TransferScheduler::pump() {
  std::deque<Pending>& latency =
      queues_[static_cast<std::size_t>(TransferClass::kLatency)];
  std::deque<Pending>& bulk =
      queues_[static_cast<std::size_t>(TransferClass::kBulk)];
  while (inflight_.size() < config_.max_inflight &&
         (!latency.empty() || !bulk.empty())) {
    // Latency first, unless a queued bulk transfer has already waited
    // through `starvation_bound` consecutive latency issues.
    const bool take_bulk =
        latency.empty() ||
        (!bulk.empty() && consecutive_latency_ >= config_.starvation_bound);
    if (take_bulk) {
      if (!latency.empty()) ++stats_.starvation_yields;
      consecutive_latency_ = 0;
    } else if (!bulk.empty()) {
      ++consecutive_latency_;
      ++stats_.preemptions;  // issued ahead of queued bulk work
    } else {
      consecutive_latency_ = 0;
    }

    std::deque<Pending>& q = take_bulk ? bulk : latency;
    Pending p = std::move(q.front());
    q.pop_front();
    const std::uint64_t now = steady_now_ns();
    stats_.queue_ns[static_cast<std::size_t>(p.cls)] +=
        now > p.enqueue_ns ? now - p.enqueue_ns : 0;

    const std::uint64_t id = next_op_id_++;
    ++stats_.backend_ops;
    // The completion callback may fire on an AIO worker before issue()
    // returns; it blocks on mutex_ (held here) until the entry below
    // exists. Synchronous completion on this thread would self-deadlock —
    // the SchedBackend contract forbids it.
    AioStatus status =
        backend_.issue(p.op, [this, id] { on_backend_done(id); });
    inflight_.emplace(id, Inflight{std::move(p.ticket), std::move(status)});
  }
}

void TransferScheduler::on_backend_done(std::uint64_t id) {
  LockGuard lock(mutex_);
  auto it = inflight_.find(id);
  ZI_CHECK(it != inflight_.end());
  Inflight op = std::move(it->second);
  inflight_.erase(it);

  detail::SchedTicket& t = *op.ticket;
  try {
    op.status.wait();  // already complete; surfaces the first error, if any
  } catch (...) {
    t.error = std::current_exception();
    t.error_code.store(op.status.error_code(), std::memory_order_relaxed);
  }
  t.done.store(true, std::memory_order_release);
  pump();
  cv_.notify_all();
}

}  // namespace zi
