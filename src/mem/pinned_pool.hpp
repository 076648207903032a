// PinnedBufferPool — the "pinned memory management layer" of the infinity
// offload engine (Sec. 6.3).
//
// The paper: "pinned memory buffers are scarce system resources, and their
// oversubscription ... can degrade overall system performance. This layer
// manages the limited supply of pinned memory by reusing a small amount
// (tens of GBs) for offloading the entire model states (up to tens of TBs)."
//
// We reproduce the management layer faithfully — a fixed set of aligned
// buffers handed out as leases and recycled — while the buffers themselves
// are ordinary aligned host memory (page-locking is an OS privilege detail
// that does not change the reuse logic; see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "mem/aligned.hpp"

namespace zi {

class PinnedBufferPool;

/// RAII lease of one pinned buffer; returns it to the pool on destruction.
class [[nodiscard]] PinnedLease {
 public:
  PinnedLease() = default;
  PinnedLease(PinnedLease&& o) noexcept;
  PinnedLease& operator=(PinnedLease&& o) noexcept;
  PinnedLease(const PinnedLease&) = delete;
  PinnedLease& operator=(const PinnedLease&) = delete;
  ~PinnedLease();

  std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool valid() const noexcept { return pool_ != nullptr; }
  void release();

 private:
  friend class PinnedBufferPool;
  PinnedLease(PinnedBufferPool* pool, std::size_t index, std::byte* data,
              std::size_t size)
      : pool_(pool), index_(index), data_(data), size_(size) {}

  PinnedBufferPool* pool_ = nullptr;
  std::size_t index_ = 0;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class PinnedBufferPool {
 public:
  struct Stats {
    std::uint64_t total_acquires = 0;
    std::uint64_t blocked_acquires = 0;  ///< acquires that had to wait
    std::uint64_t peak_in_use = 0;
    std::size_t num_buffers = 0;
    std::size_t buffer_bytes = 0;
  };

  /// Pre-allocate `num_buffers` buffers of `buffer_bytes` each, aligned for
  /// O_DIRECT. Total footprint is fixed for the life of the pool — this is
  /// the anti-fragmentation property the paper relies on.
  PinnedBufferPool(std::size_t buffer_bytes, std::size_t num_buffers);

  PinnedBufferPool(const PinnedBufferPool&) = delete;
  PinnedBufferPool& operator=(const PinnedBufferPool&) = delete;

  /// Acquire a buffer, blocking until one is free.
  [[nodiscard]] PinnedLease acquire() ZI_EXCLUDES(mutex_);

  /// Acquire without blocking; nullopt if all buffers are leased.
  [[nodiscard]] std::optional<PinnedLease> try_acquire() ZI_EXCLUDES(mutex_);

  /// Acquire a buffer able to hold `bytes` without blocking: nullopt when
  /// `bytes` exceeds the pool's buffer size (without touching the pool or
  /// its fault site) or when every buffer is leased. The single decision
  /// point behind DataMover::stage()'s pinned-or-heap staging choice.
  [[nodiscard]] std::optional<PinnedLease> try_acquire_for(std::size_t bytes)
      ZI_EXCLUDES(mutex_);

  std::size_t buffer_bytes() const noexcept { return buffer_bytes_; }
  std::size_t num_buffers() const noexcept { return buffers_.size(); }
  std::size_t available() const ZI_EXCLUDES(mutex_);
  Stats stats() const ZI_EXCLUDES(mutex_);

 private:
  friend class PinnedLease;
  void release(std::size_t index) ZI_EXCLUDES(mutex_);
  PinnedLease make_lease_locked() ZI_REQUIRES(mutex_);

  std::size_t buffer_bytes_;
  std::vector<AlignedBuffer> buffers_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<std::size_t> free_indices_ ZI_GUARDED_BY(mutex_);
  Stats stats_ ZI_GUARDED_BY(mutex_);
};

}  // namespace zi
