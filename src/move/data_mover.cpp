#include "move/data_mover.hpp"

#include <chrono>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace zi {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::string span_args(std::uint64_t bytes) {
  return "\"bytes\":" + std::to_string(bytes);
}

}  // namespace

const char* route_name(Route r) {
  switch (r) {
    case Route::kGpuFetch: return "gpu>host";
    case Route::kGpuSpill: return "host>gpu";
    case Route::kCpuFetch: return "cpu>host";
    case Route::kCpuSpill: return "host>cpu";
    case Route::kNvmeFetch: return "nvme>host";
    case Route::kNvmeSpill: return "host>nvme";
    case Route::kKvFetch: return "kv>host";
    case Route::kKvSpill: return "host>kv";
  }
  return "?";
}

void TransferHandle::wait_inner() {
  if (ticket_ != nullptr) sched_->wait(ticket_);
}

void TransferHandle::wait() {
  if (mover_ == nullptr) {
    wait_inner();  // already recorded (or trivially complete)
    return;
  }
  DataMover* mover = mover_;
  mover_ = nullptr;  // record exactly once, even if wait() throws
  const auto t0 = Clock::now();
  try {
    wait_inner();
  } catch (...) {
    mover->note_seconds(transfer_.route, ns_between(t0, Clock::now()));
    throw;
  }
  mover->note_seconds(transfer_.route, ns_between(t0, Clock::now()));
}

std::uint64_t DataMover::Stats::total_bytes() const {
  std::uint64_t total = 0;
  for (const RouteStats& r : routes) total += r.bytes;
  return total;
}

std::uint64_t DataMover::Stats::total_transfers() const {
  std::uint64_t total = 0;
  for (const RouteStats& r : routes) total += r.transfers;
  return total;
}

double DataMover::Stats::total_seconds() const {
  double total = 0.0;
  for (const RouteStats& r : routes) total += r.seconds;
  return total;
}

DataMover::DataMover(NvmeStore& nvme, PinnedBufferPool& pinned,
                     TransferScheduler::Config sched_config)
    : nvme_(nvme),
      pinned_(pinned),
      sched_backend_(nvme),
      sched_(sched_backend_, sched_config) {}

void DataMover::check_extent(const Extent& extent, std::size_t bytes,
                             std::uint64_t offset, const char* what) {
  // The scheduler addresses the backing file directly, so the per-extent
  // checks NvmeStore would have done live here.
  ZI_CHECK_MSG(extent.valid(), what << " on released extent");
  ZI_CHECK_MSG(offset + bytes <= extent.size(),
               what << " of " << bytes << " bytes at offset " << offset
                    << " exceeds extent of " << extent.size());
}

StagingLease DataMover::stage(std::size_t bytes) {
  if (auto lease = pinned_.try_acquire_for(bytes)) {
    staged_pinned_.fetch_add(1, std::memory_order_relaxed);
    return StagingLease(std::move(*lease), bytes);
  }
  staged_heap_.fetch_add(1, std::memory_order_relaxed);
  return StagingLease(bytes);
}

TransferHandle DataMover::fetch_nvme(const Extent& extent,
                                     std::span<std::byte> dst,
                                     std::uint64_t offset, TransferClass cls) {
  return submit(Route::kNvmeFetch, extent, dst.data(), dst.size(), offset,
                cls);
}

TransferHandle DataMover::spill_nvme(const Extent& extent,
                                     std::span<const std::byte> src,
                                     std::uint64_t offset, TransferClass cls) {
  // The scheduler only reads spill payloads; const_cast confined here,
  // mirroring AioEngine::submit_write.
  return submit(Route::kNvmeSpill, extent, const_cast<std::byte*>(src.data()),
                src.size(), offset, cls);
}

void DataMover::fetch_nvme_sync(const Extent& extent, std::span<std::byte> dst,
                                std::uint64_t offset) {
  fetch_nvme(extent, dst, offset, TransferClass::kLatency).wait();
}

void DataMover::spill_nvme_sync(const Extent& extent,
                                std::span<const std::byte> src,
                                std::uint64_t offset) {
  spill_nvme(extent, src, offset, TransferClass::kLatency).wait();
}

TransferHandle DataMover::fetch_kv(const Extent& extent,
                                   std::span<std::byte> dst,
                                   std::uint64_t offset, TransferClass cls) {
  return submit(Route::kKvFetch, extent, dst.data(), dst.size(), offset, cls);
}

TransferHandle DataMover::spill_kv(const Extent& extent,
                                   std::span<const std::byte> src,
                                   std::uint64_t offset, TransferClass cls) {
  // Read-only payload; const_cast confined here like spill_nvme.
  return submit(Route::kKvSpill, extent, const_cast<std::byte*>(src.data()),
                src.size(), offset, cls);
}

TransferHandle DataMover::submit(Route r, const Extent& extent,
                                 std::byte* data, std::size_t bytes,
                                 std::uint64_t offset, TransferClass cls) {
  ZI_TRACE_SPAN("move", route_name(r), span_args(bytes));
  // Validate before counting: a rejected transfer moves no bytes.
  check_extent(extent, bytes, offset, route_name(r));
  note_issue(r, bytes);
  return TransferHandle(
      this, Transfer{r, bytes, offset}, &sched_,
      sched_.submit(r, cls, extent.offset() + offset, data, bytes));
}

void DataMover::fetch_copy(Route r, std::span<std::byte> dst,
                           const std::byte* tier_src) {
  ZI_TRACE_SPAN("move", route_name(r), span_args(dst.size()));
  note_issue(r, dst.size());
  const auto t0 = Clock::now();
  std::memcpy(dst.data(), tier_src, dst.size());
  note_seconds(r, ns_between(t0, Clock::now()));
}

void DataMover::spill_copy(Route r, std::byte* tier_dst,
                           std::span<const std::byte> src) {
  ZI_TRACE_SPAN("move", route_name(r), span_args(src.size()));
  note_issue(r, src.size());
  const auto t0 = Clock::now();
  std::memcpy(tier_dst, src.data(), src.size());
  note_seconds(r, ns_between(t0, Clock::now()));
}

DataMover::Stats DataMover::stats() const {
  Stats s;
  for (int i = 0; i < kNumRoutes; ++i) {
    const AtomicRoute& a = routes_[static_cast<std::size_t>(i)];
    RouteStats& r = s.routes[static_cast<std::size_t>(i)];
    r.bytes = a.bytes.load(std::memory_order_relaxed);
    r.transfers = a.transfers.load(std::memory_order_relaxed);
    r.seconds =
        static_cast<double>(a.wait_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  s.staged_pinned = staged_pinned_.load(std::memory_order_relaxed);
  s.staged_heap = staged_heap_.load(std::memory_order_relaxed);
  s.sched = sched_.stats();
  return s;
}

void DataMover::note_issue(Route r, std::uint64_t bytes) {
  AtomicRoute& a = routes_[static_cast<std::size_t>(r)];
  a.bytes.fetch_add(bytes, std::memory_order_relaxed);
  a.transfers.fetch_add(1, std::memory_order_relaxed);
}

void DataMover::note_seconds(Route r, std::uint64_t ns) {
  routes_[static_cast<std::size_t>(r)].wait_ns.fetch_add(
      ns, std::memory_order_relaxed);
}

}  // namespace zi
