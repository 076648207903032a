// NvmeStore — extent-managed tensor swap space on NVMe (simulated by a
// local file), the storage backend of the infinity offload engine.
//
// Each store owns one backing file and an extent allocator over it. Extent
// bookkeeping reuses DeviceArena in virtual mode: the same first-fit /
// coalescing logic that models GPU memory also manages file space, and the
// same OutOfMemoryError signals NVMe exhaustion in capacity experiments.
//
// All data movement goes through the AioEngine, so reads and writes are
// asynchronous, block-split across I/O workers, and copy-free between the
// caller's buffer and the file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "aio/aio_engine.hpp"
#include "mem/arena.hpp"

namespace zi {

/// A region of the store's backing file holding one offloaded tensor.
/// Movable RAII handle; frees the extent on destruction.
class Extent {
 public:
  Extent() = default;
  Extent(Extent&&) noexcept = default;
  Extent& operator=(Extent&&) noexcept = default;

  std::uint64_t offset() const noexcept { return block_.offset(); }
  std::uint64_t size() const noexcept { return block_.size(); }
  bool valid() const noexcept { return block_.valid(); }
  void release() { block_.release(); }

 private:
  friend class NvmeStore;
  explicit Extent(ArenaBlock block) : block_(std::move(block)) {}
  ArenaBlock block_;
};

class NvmeStore {
 public:
  /// Create/open the backing file at `path` with addressable `capacity`.
  NvmeStore(AioEngine& engine, const std::filesystem::path& path,
            std::uint64_t capacity);

  NvmeStore(const NvmeStore&) = delete;
  NvmeStore& operator=(const NvmeStore&) = delete;

  /// Reserve space for `bytes` (rounded up to the I/O alignment so extents
  /// remain O_DIRECT-eligible). Throws OutOfMemoryError when full.
  Extent allocate(std::uint64_t bytes);

  /// Async write of buf into the extent at byte `offset` within it
  /// (offset + buf.size() <= extent.size()).
  [[nodiscard]] AioStatus write_async(const Extent& extent,
                                      std::span<const std::byte> buf,
                                      std::uint64_t offset = 0);
  /// Async read from byte `offset` within the extent into buf.
  [[nodiscard]] AioStatus read_async(const Extent& extent,
                                     std::span<std::byte> buf,
                                     std::uint64_t offset = 0) const;

  /// Absolute-offset async I/O, for the transfer scheduler: DataMover has
  /// already checked the range against its Extent, so the scheduler
  /// addresses the backing file directly. `on_complete`, when given, runs
  /// exactly once after the last sub-request finishes.
  [[nodiscard]] AioStatus write_abs_async(
      std::uint64_t offset, std::span<const std::byte> buf,
      std::function<void()> on_complete = {});
  [[nodiscard]] AioStatus read_abs_async(
      std::uint64_t offset, std::span<std::byte> buf,
      std::function<void()> on_complete = {}) const;

  /// Synchronous conveniences.
  void write(const Extent& extent, std::span<const std::byte> buf,
             std::uint64_t offset = 0);
  void read(const Extent& extent, std::span<std::byte> buf,
            std::uint64_t offset = 0) const;

  std::uint64_t capacity() const noexcept { return extents_->capacity(); }
  std::uint64_t used() const { return extents_->used(); }
  const std::string& path() const noexcept { return path_; }
  AioEngine& engine() noexcept { return engine_; }

 private:
  AioEngine& engine_;
  std::string path_;
  AioFile* file_;
  std::unique_ptr<DeviceArena> extents_;
};

}  // namespace zi
