// AioEngine — the DeepNVMe analog (Sec. 6.3).
//
// "DeepNVMe, a powerful C++ NVMe read/write library ... supports bulk
// read/write requests for asynchronous completion, and explicit
// synchronization requests to flush ongoing read/writes. ... It achieves
// this high performance through a number of optimizations, including
// aggressive parallelization of I/O requests (whether from a single user
// thread or across multiple user threads), smart work scheduling, avoiding
// data copying, and memory pinning."
//
// This engine reproduces that architecture over ordinary files:
//   * a worker thread pool executes I/O sub-requests concurrently;
//   * large requests are split into block-sized sub-requests so a single
//     user-thread submission still saturates all workers ("aggressive
//     parallelization ... from a single user thread");
//   * reads/writes go directly between the caller's (pinned, aligned)
//     buffer and the file — no intermediate copies;
//   * O_DIRECT is attempted when requested, with transparent fallback to
//     buffered I/O (the fallback is recorded in stats so benchmarks can
//     report which path ran);
//   * completion is exposed as a waitable handle; drain() is the explicit
//     flush/synchronization request.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"

namespace zi {

struct AioConfig {
  /// I/O worker threads ("queue depth" of the engine).
  std::size_t num_workers = 4;
  /// Requests larger than this are split into sub-requests of this size and
  /// scheduled across workers.
  std::size_t block_bytes = 1 << 20;
  /// Attempt O_DIRECT. Unaligned requests transparently use a buffered
  /// descriptor for the same file.
  bool try_odirect = false;
  /// Transient-failure policy: a sub-request that fails with an I/O error
  /// (real or injected) is retried up to this many times before the error
  /// surfaces as RetriesExhaustedError through AioStatus::wait().
  int max_retries = 4;
  /// Base backoff between retries; doubles per attempt (exponential).
  std::uint64_t retry_backoff_us = 20;
};

/// Completion handle for one submitted request (possibly many sub-requests).
/// Copyable (shared state); wait() blocks until all sub-requests finish and
/// rethrows the first I/O error, if any.
class AioStatus {
 public:
  AioStatus() = default;
  /// A trivially-complete status: done, ok, zero bytes. The adaptor the
  /// move layer's TransferHandle wraps for transfers that finished inside
  /// the issuing call (memcpy routes) — named so "this never had I/O in
  /// flight" is explicit at the call site.
  static AioStatus completed() { return AioStatus(); }
  /// True while sub-requests are still in flight (a default-constructed /
  /// completed() status is never pending).
  bool pending() const { return !done(); }
  void wait() const;
  bool done() const;
  /// done() with no error recorded. False while sub-requests are in flight.
  bool ok() const;
  /// errno of the first failed sub-request (0 = no failure so far). Unlike
  /// wait(), reading this never throws — callers that poll instead of
  /// waiting still see the failure.
  int error_code() const;
  /// Bytes actually transferred by completed sub-requests; short of the
  /// request size exactly when a sub-request failed mid-range.
  std::uint64_t bytes_transferred() const;

  class Source;
  /// A manually-completable single-slot status, for test backends that
  /// stand in for the engine: the Source's status() stays pending until
  /// complete() is called. Production statuses come from submit_*().
  static Source make_source();

 private:
  friend class AioEngine;
  friend class Source;
  struct State;
  explicit AioStatus(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// Completion side of a manufactured AioStatus (see make_source()). Tests
/// hold the Source, hand status() to the code under test, and decide when —
/// and with what outcome — the "I/O" finishes.
class AioStatus::Source {
 public:
  Source() = default;
  /// The waitable view of this source (sharable, like any AioStatus).
  AioStatus status() const { return AioStatus(state_); }
  /// Callback invoked (once, on the completing thread) by complete().
  void set_on_complete(std::function<void()> cb);
  /// Complete the status: records the error (if any) and `bytes` as the
  /// transferred count, wakes waiters, then runs the on_complete callback.
  /// Must be called exactly once.
  void complete(std::exception_ptr error = nullptr, int error_code = 0,
                std::uint64_t bytes = 0);

 private:
  friend class AioStatus;
  std::shared_ptr<AioStatus::State> state_;
};

/// An open file managed by the engine. Obtained from AioEngine::open();
/// remains valid until the engine is destroyed.
class AioFile {
 public:
  ~AioFile();
  AioFile(const AioFile&) = delete;
  AioFile& operator=(const AioFile&) = delete;

  const std::string& path() const noexcept { return path_; }
  /// True if an O_DIRECT descriptor was successfully opened.
  bool direct_capable() const noexcept { return direct_fd_ >= 0; }
  /// Current file size in bytes.
  std::uint64_t size() const;
  /// Extend/truncate to `bytes`.
  void resize(std::uint64_t bytes);
  /// Flush file data and metadata to stable storage (fsync). The durability
  /// point of the atomic-checkpoint protocol (write-tmp → fsync → rename).
  void sync();

 private:
  friend class AioEngine;
  AioFile(std::string path, int buffered_fd, int direct_fd)
      : path_(std::move(path)), buffered_fd_(buffered_fd), direct_fd_(direct_fd) {}

  std::string path_;
  int buffered_fd_ = -1;
  int direct_fd_ = -1;  ///< -1 when O_DIRECT unavailable
};

class AioEngine {
 public:
  struct Stats {
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t requests = 0;       ///< user-level submissions
    std::uint64_t sub_requests = 0;   ///< block-level operations scheduled
    std::uint64_t direct_ops = 0;     ///< sub-requests served via O_DIRECT
    std::uint64_t buffered_ops = 0;   ///< sub-requests served buffered
    std::uint64_t retries = 0;        ///< sub-request attempts after failure
    std::uint64_t retries_exhausted = 0;  ///< sub-requests that gave up
  };

  explicit AioEngine(AioConfig config = {});
  ~AioEngine();

  AioEngine(const AioEngine&) = delete;
  AioEngine& operator=(const AioEngine&) = delete;

  /// Open (creating if needed) a file for async I/O. The engine owns the
  /// returned object.
  AioFile* open(const std::filesystem::path& path);

  /// Asynchronously read file[offset, offset+buf.size()) into buf. The
  /// buffer must stay alive until the status completes. `on_complete`, when
  /// given, runs exactly once on the worker that finishes the last
  /// sub-request (inline before return for zero-length requests) — it must
  /// not block on the returned status.
  [[nodiscard]] AioStatus submit_read(AioFile* file, std::uint64_t offset,
                                      std::span<std::byte> buf,
                                      std::function<void()> on_complete = {});

  /// Asynchronously write buf to file[offset, ...).
  [[nodiscard]] AioStatus submit_write(AioFile* file, std::uint64_t offset,
                                       std::span<const std::byte> buf,
                                       std::function<void()> on_complete = {});

  /// Synchronous conveniences (submit + wait).
  void read(AioFile* file, std::uint64_t offset, std::span<std::byte> buf);
  void write(AioFile* file, std::uint64_t offset,
             std::span<const std::byte> buf);

  /// Explicit synchronization request: block until every outstanding
  /// sub-request has completed.
  void drain();

  Stats stats() const ZI_EXCLUDES(stats_mutex_);
  const AioConfig& config() const noexcept { return config_; }

 private:
  enum class OpKind { kRead, kWrite };
  AioStatus submit(AioFile* file, std::uint64_t offset, std::byte* buf,
                   std::size_t len, OpKind kind,
                   std::function<void()> on_complete);
  void run_sub_request(AioFile* file, std::uint64_t offset, std::byte* buf,
                       std::size_t len, OpKind kind,
                       const std::shared_ptr<AioStatus::State>& state);

  AioConfig config_;
  ThreadPool pool_;
  mutable Mutex files_mutex_;
  std::vector<std::unique_ptr<AioFile>> files_ ZI_GUARDED_BY(files_mutex_);
  mutable Mutex stats_mutex_;
  Stats stats_ ZI_GUARDED_BY(stats_mutex_);
};

}  // namespace zi
