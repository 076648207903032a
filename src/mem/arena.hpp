// DeviceArena — a capacity-limited memory arena standing in for GPU memory.
//
// The paper's scale results hinge on what fits in (and what must be evicted
// from) device memory, and Sec. 8.5's memory-centric-tiling experiment
// (Fig. 6b) hinges specifically on *contiguity*: "we pre fragment the total
// GPU memory into 2 GB contiguous chunks so that all memory allocation
// requests larger than 2GB will fail."
//
// The arena is a first-fit free-list allocator over a fixed address range,
// so genuine fragmentation arises from allocation patterns. Two modes:
//
//   * kReal    — backed by host memory; allocations return usable pointers.
//                Used by rank threads for gathered parameters/activations so
//                "GPU memory" pressure is enforced, not assumed.
//   * kVirtual — bookkeeping only (no backing memory). Used to run
//                capacity/contiguity experiments at 32 GB-per-GPU scale on a
//                small host (Fig. 6b).
//
// Exhaustion and contiguity failure throw zi::OutOfMemoryError, the analog
// of CUDA OOM; scale sweeps catch it to find the largest runnable config.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.hpp"
#include "mem/aligned.hpp"

namespace zi {

class DeviceArena;

/// A block allocated from a DeviceArena. Movable RAII handle; returns the
/// block to the arena on destruction.
class ArenaBlock {
 public:
  ArenaBlock() = default;
  ArenaBlock(ArenaBlock&& o) noexcept;
  ArenaBlock& operator=(ArenaBlock&& o) noexcept;
  ArenaBlock(const ArenaBlock&) = delete;
  ArenaBlock& operator=(const ArenaBlock&) = delete;
  ~ArenaBlock();

  /// Pointer to usable memory (nullptr for virtual-mode arenas).
  std::byte* data() const noexcept { return ptr_; }
  std::uint64_t offset() const noexcept { return offset_; }
  std::uint64_t size() const noexcept { return size_; }
  bool valid() const noexcept { return arena_ != nullptr; }

  /// Explicitly release back to the arena (idempotent).
  void release();

 private:
  friend class DeviceArena;
  ArenaBlock(DeviceArena* arena, std::uint64_t offset, std::uint64_t size,
             std::byte* ptr)
      : arena_(arena), offset_(offset), size_(size), ptr_(ptr) {}

  DeviceArena* arena_ = nullptr;
  std::uint64_t offset_ = 0;
  std::uint64_t size_ = 0;
  std::byte* ptr_ = nullptr;
};

class DeviceArena {
 public:
  enum class Mode { kReal, kVirtual };

  struct Stats {
    std::uint64_t capacity = 0;
    std::uint64_t used = 0;
    std::uint64_t peak_used = 0;
    std::uint64_t num_allocs = 0;       ///< successful allocations, lifetime
    std::uint64_t num_frees = 0;        ///< lifetime
    std::uint64_t oom_capacity = 0;     ///< failures: not enough total space
    std::uint64_t oom_contiguity = 0;   ///< failures: no contiguous span
    std::uint64_t live_blocks = 0;
    std::uint64_t largest_free_block = 0;
  };

  /// `name` appears in OOM diagnostics ("gpu[3]" etc.).
  DeviceArena(std::string name, std::uint64_t capacity_bytes, Mode mode);
  ~DeviceArena();

  DeviceArena(const DeviceArena&) = delete;
  DeviceArena& operator=(const DeviceArena&) = delete;

  /// Allocate `bytes` (rounded up to `alignment`). First-fit over the free
  /// list. Throws OutOfMemoryError on capacity or contiguity failure.
  ArenaBlock allocate(std::uint64_t bytes, std::uint64_t alignment = 256)
      ZI_EXCLUDES(mutex_);

  /// Split the entire free space into chunks of at most `chunk_bytes` so
  /// that no future allocation larger than `chunk_bytes` can succeed. This
  /// is the paper's Fig. 6b pre-fragmentation protocol. Must be called on a
  /// fully free arena.
  void prefragment(std::uint64_t chunk_bytes) ZI_EXCLUDES(mutex_);

  Stats stats() const ZI_EXCLUDES(mutex_);
  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t used() const ZI_EXCLUDES(mutex_);
  std::uint64_t free_bytes() const ZI_EXCLUDES(mutex_);
  /// Largest single allocation the arena could satisfy right now.
  std::uint64_t largest_free_block() const ZI_EXCLUDES(mutex_);
  const std::string& name() const noexcept { return name_; }
  Mode mode() const noexcept { return mode_; }

 private:
  friend class ArenaBlock;
  void deallocate(std::uint64_t offset, std::uint64_t size)
      ZI_EXCLUDES(mutex_);
  std::uint64_t largest_free_locked() const ZI_REQUIRES(mutex_);

  std::string name_;
  std::uint64_t capacity_;
  Mode mode_;
  AlignedBuffer backing_;  // null in kVirtual mode

  mutable Mutex mutex_;
  // Free spans keyed by offset -> size; adjacent spans are coalesced on free.
  std::map<std::uint64_t, std::uint64_t> free_spans_ ZI_GUARDED_BY(mutex_);
  // Reserved spans created by prefragment() are never returned.
  std::uint64_t reserved_bytes_ ZI_GUARDED_BY(mutex_) = 0;
  Stats stats_ ZI_GUARDED_BY(mutex_);
};

}  // namespace zi
