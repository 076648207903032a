#include "aio/aio_engine.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "mem/aligned.hpp"
#include "obs/trace.hpp"
#include "testing/fault_injector.hpp"

namespace zi {

// ---------------------------------------------------------------------------
// AioStatus

struct AioStatus::State {
  /// `n` sub-requests outstanding; safe unguarded in the constructor — the
  /// state is published to workers only via ThreadPool::enqueue afterwards.
  explicit State(std::size_t n, std::function<void()> cb = {})
      : pending(n), on_complete(std::move(cb)) {}

  Mutex mutex;
  CondVar cv;
  std::size_t pending ZI_GUARDED_BY(mutex);
  std::exception_ptr error ZI_GUARDED_BY(mutex);
  int error_code ZI_GUARDED_BY(mutex) = 0;        ///< first failure's errno
  std::uint64_t bytes_ok ZI_GUARDED_BY(mutex) = 0;
  /// Invoked once, after the last sub-request completes, outside the lock.
  std::function<void()> on_complete ZI_GUARDED_BY(mutex);

  void complete_one(std::exception_ptr err, int err_code,
                    std::uint64_t bytes) ZI_EXCLUDES(mutex) {
    std::function<void()> cb;
    {
      LockGuard lock(mutex);
      if (err && !error) {
        error = err;
        error_code = err_code;
      }
      bytes_ok += bytes;
      ZI_CHECK(pending > 0);
      if (--pending == 0) {
        // Move the callback out before notifying: it runs outside the lock
        // (it may re-enter the scheduler), and exactly once.
        cb = std::move(on_complete);
        on_complete = nullptr;
        cv.notify_all();
      }
    }
    if (cb) cb();
  }
};

AioStatus::Source AioStatus::make_source() {
  Source s;
  s.state_ = std::make_shared<State>(1);
  return s;
}

void AioStatus::Source::set_on_complete(std::function<void()> cb) {
  ZI_CHECK(state_ != nullptr);
  LockGuard lock(state_->mutex);
  ZI_CHECK(state_->pending > 0);  // not yet completed
  state_->on_complete = std::move(cb);
}

void AioStatus::Source::complete(std::exception_ptr error, int error_code,
                                 std::uint64_t bytes) {
  ZI_CHECK(state_ != nullptr);
  state_->complete_one(error, error_code, bytes);
}

void AioStatus::wait() const {
  if (!state_) return;  // default-constructed: trivially complete
  UniqueLock lock(state_->mutex);
  while (state_->pending != 0) state_->cv.wait(lock);
  if (state_->error) std::rethrow_exception(state_->error);
}

bool AioStatus::done() const {
  if (!state_) return true;
  LockGuard lock(state_->mutex);
  return state_->pending == 0;
}

bool AioStatus::ok() const {
  if (!state_) return true;
  LockGuard lock(state_->mutex);
  return state_->pending == 0 && !state_->error;
}

int AioStatus::error_code() const {
  if (!state_) return 0;
  LockGuard lock(state_->mutex);
  return state_->error_code;
}

std::uint64_t AioStatus::bytes_transferred() const {
  if (!state_) return 0;
  LockGuard lock(state_->mutex);
  return state_->bytes_ok;
}

// ---------------------------------------------------------------------------
// AioFile

AioFile::~AioFile() {
  if (buffered_fd_ >= 0) ::close(buffered_fd_);
  if (direct_fd_ >= 0) ::close(direct_fd_);
}

std::uint64_t AioFile::size() const {
  struct stat st{};
  ZI_CHECK(::fstat(buffered_fd_, &st) == 0);
  return static_cast<std::uint64_t>(st.st_size);
}

void AioFile::resize(std::uint64_t bytes) {
  if (::ftruncate(buffered_fd_, static_cast<off_t>(bytes)) != 0) {
    throw IoError("ftruncate(" + path_ + "): " + std::strerror(errno), errno);
  }
}

void AioFile::sync() {
  if (::fsync(buffered_fd_) != 0) {
    throw IoError("fsync(" + path_ + "): " + std::strerror(errno), errno);
  }
}

// ---------------------------------------------------------------------------
// AioEngine

AioEngine::AioEngine(AioConfig config)
    : config_(config), pool_(config.num_workers, "aio") {
  ZI_CHECK(config_.block_bytes > 0);
}

AioEngine::~AioEngine() {
  // ThreadPool destructor joins workers after the queue empties, so all
  // outstanding sub-requests finish before file descriptors close.
  pool_.wait_idle();
}

AioFile* AioEngine::open(const std::filesystem::path& path) {
  const int buffered_fd =
      ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (buffered_fd < 0) {
    throw IoError("open(" + path.string() + "): " + std::strerror(errno),
                  errno);
  }
  int direct_fd = -1;
  if (config_.try_odirect) {
    direct_fd = ::open(path.c_str(), O_RDWR | O_DIRECT, 0644);
    if (direct_fd < 0) {
      ZI_LOG_INFO << "O_DIRECT unavailable for " << path.string()
                  << " (errno=" << errno << "); using buffered I/O";
    }
  }
  auto file = std::unique_ptr<AioFile>(
      new AioFile(path.string(), buffered_fd, direct_fd));
  AioFile* raw = file.get();
  LockGuard lock(files_mutex_);
  files_.push_back(std::move(file));
  return raw;
}

AioStatus AioEngine::submit_read(AioFile* file, std::uint64_t offset,
                                 std::span<std::byte> buf,
                                 std::function<void()> on_complete) {
  return submit(file, offset, buf.data(), buf.size(), OpKind::kRead,
                std::move(on_complete));
}

AioStatus AioEngine::submit_write(AioFile* file, std::uint64_t offset,
                                  std::span<const std::byte> buf,
                                  std::function<void()> on_complete) {
  // Writes never modify the buffer; const_cast confined to this boundary.
  return submit(file, offset, const_cast<std::byte*>(buf.data()), buf.size(),
                OpKind::kWrite, std::move(on_complete));
}

void AioEngine::read(AioFile* file, std::uint64_t offset,
                     std::span<std::byte> buf) {
  submit_read(file, offset, buf).wait();
}

void AioEngine::write(AioFile* file, std::uint64_t offset,
                      std::span<const std::byte> buf) {
  submit_write(file, offset, buf).wait();
}

AioStatus AioEngine::submit(AioFile* file, std::uint64_t offset,
                            std::byte* buf, std::size_t len, OpKind kind,
                            std::function<void()> on_complete) {
  ZI_CHECK(file != nullptr);
  if (len == 0) {
    // Nothing to schedule: the status is born complete, so the callback
    // runs inline (documented at submit_read).
    if (on_complete) on_complete();
    return AioStatus(std::make_shared<AioStatus::State>(0));
  }

  const std::size_t num_blocks =
      (len + config_.block_bytes - 1) / config_.block_bytes;
  auto state = std::make_shared<AioStatus::State>(num_blocks,
                                                  std::move(on_complete));
  {
    LockGuard lock(stats_mutex_);
    ++stats_.requests;
    stats_.sub_requests += num_blocks;
    if (kind == OpKind::kRead) {
      stats_.bytes_read += len;
    } else {
      stats_.bytes_written += len;
    }
  }

  // Split into block-sized sub-requests scheduled across the worker pool:
  // a single-threaded caller still drives all workers in parallel.
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t chunk_off = b * config_.block_bytes;
    const std::size_t chunk_len = std::min(config_.block_bytes, len - chunk_off);
    pool_.enqueue([this, file, offset, buf, chunk_off, chunk_len, kind, state] {
      run_sub_request(file, offset + chunk_off, buf + chunk_off, chunk_len,
                      kind, state);
    });
  }
  return AioStatus(state);
}

void AioEngine::run_sub_request(
    AioFile* file, std::uint64_t offset, std::byte* buf, std::size_t len,
    OpKind kind, const std::shared_ptr<AioStatus::State>& state) {
  ZI_TRACE_SPAN("aio", kind == OpKind::kRead ? "read" : "write",
                "\"bytes\":" + std::to_string(len) +
                    ",\"offset\":" + std::to_string(offset));
  std::exception_ptr error;
  int error_code = 0;
  std::size_t done = 0;  // bytes transferred by the last (partial) attempt
  try {
    // O_DIRECT eligibility: aligned offset, length, and buffer address.
    const bool aligned = (offset % kIoAlignment == 0) &&
                         (len % kIoAlignment == 0) &&
                         (reinterpret_cast<std::uintptr_t>(buf) % kIoAlignment == 0);
    const bool use_direct = file->direct_fd_ >= 0 && aligned;
    const int fd = use_direct ? file->direct_fd_ : file->buffered_fd_;
    const FaultSite site =
        kind == OpKind::kRead ? FaultSite::kAioRead : FaultSite::kAioWrite;
    {
      LockGuard lock(stats_mutex_);
      if (use_direct) {
        ++stats_.direct_ops;
      } else {
        ++stats_.buffered_ops;
      }
    }

    // Bounded retry-with-backoff: pread/pwrite over a fixed range are
    // idempotent, so a failed attempt restarts the whole sub-request. Real
    // transient errors (EIO on a flaky device, EAGAIN) and injected ones
    // take the same path.
    for (int attempt = 0;; ++attempt) {
      try {
        done = 0;
        while (done < len) {
          std::size_t req = len - done;
          if (FaultInjector::armed()) {
            const FaultDecision fault = fault_check(site);
            if (fault.delay_us != 0) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(fault.delay_us));
            }
            if (fault.error) {
              throw IoError(
                  std::string(kind == OpKind::kRead ? "pread(" : "pwrite(") +
                      file->path_ + "): injected EIO at offset " +
                      std::to_string(offset + done),
                  EIO);
            }
            // Short transfer: hand the syscall half the remaining range;
            // the resume loop picks up the rest (what a real short count
            // exercises). O_DIRECT is exempt — an unaligned length would
            // turn the short into a spurious EINVAL.
            if (fault.short_op && !use_direct && req > 1) req = (req + 1) / 2;
          }
          ssize_t n;
          if (kind == OpKind::kRead) {
            n = ::pread(fd, buf + done, req, static_cast<off_t>(offset + done));
          } else {
            n = ::pwrite(fd, buf + done, req,
                         static_cast<off_t>(offset + done));
          }
          if (n < 0) {
            if (errno == EINTR) continue;
            throw IoError(
                std::string(kind == OpKind::kRead ? "pread(" : "pwrite(") +
                    file->path_ + "): " + std::strerror(errno),
                errno);
          }
          if (n == 0 && kind == OpKind::kRead) {
            throw IoError("pread(" + file->path_ +
                              "): unexpected EOF at offset " +
                              std::to_string(offset + done),
                          0);
          }
          done += static_cast<std::size_t>(n);
        }
        break;  // attempt succeeded
      } catch (const IoError& e) {
        if (attempt >= config_.max_retries) {
          {
            LockGuard lock(stats_mutex_);
            ++stats_.retries_exhausted;
          }
          throw RetriesExhaustedError(
              std::string(e.what()) + " (after " +
                  std::to_string(attempt + 1) + " attempts)",
              e.error_code(), attempt + 1);
        }
        {
          LockGuard lock(stats_mutex_);
          ++stats_.retries;
        }
        ZI_TRACE_INSTANT("aio", "retry",
                         "\"attempt\":" + std::to_string(attempt + 1) +
                             ",\"errno\":" + std::to_string(e.error_code()));
        if (config_.retry_backoff_us > 0) {
          const int shift = attempt < 10 ? attempt : 10;
          std::this_thread::sleep_for(std::chrono::microseconds(
              config_.retry_backoff_us << shift));
        }
      }
    }
  } catch (const IoError& e) {
    error_code = e.error_code();
    error = std::current_exception();
  } catch (...) {
    error = std::current_exception();
  }
  // On failure `done` reports the failing attempt's partial progress — the
  // short-byte-count callers see through AioStatus::bytes_transferred().
  state->complete_one(error, error_code, error ? done : len);
}

void AioEngine::drain() { pool_.wait_idle(); }

AioEngine::Stats AioEngine::stats() const {
  LockGuard lock(stats_mutex_);
  return stats_;
}

}  // namespace zi
