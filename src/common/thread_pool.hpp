// Fixed-size worker thread pool.
//
// Used by the aio engine (I/O worker parallelization, Sec. 6.3 "aggressive
// parallelization of I/O requests"). Tasks are type-erased closures;
// submit() returns a std::future for completion / exception propagation,
// matching the "bulk read/write requests for asynchronous completion, and
// explicit synchronization requests" design of DeepNVMe.
//
// Worker placement: a pool built on a thread whose CPU mask holds k > 1
// CPUs pins worker i to the (i mod k)-th of them, so workers given a shared
// mask run side by side instead of being stacked on one CPU by the kernel.
// A 1-CPU mask is left as is. The placement is re-applied after fork.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace zi {

class ThreadPool {
 public:
  /// Start `num_threads` workers (at least 1), placed on the calling
  /// thread's CPUs as described above. When `name` is non-empty the workers
  /// register Perfetto tracks "<name>0", "<name>1", ... with the tracer
  /// (obs/trace.hpp).
  explicit ThreadPool(std::size_t num_threads, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future carries the result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Enqueue fire-and-forget work (completion tracked by wait_idle()).
  void enqueue(std::function<void()> fn) ZI_EXCLUDES(mutex_);

  /// Block until the queue is empty and all workers are idle.
  void wait_idle() ZI_EXCLUDES(mutex_);

  /// Worker count; workers_ is immutable after construction, so this is
  /// safe to read without the mutex.
  std::size_t size() const { return workers_.size(); }
  /// Total tasks executed since construction (for engine statistics).
  std::uint64_t tasks_completed() const ZI_EXCLUDES(mutex_);

  /// Respawn the workers of every live ThreadPool in this process. A forked
  /// child inherits pool objects but none of the parent's worker threads, so
  /// a rank subprocess (proc transport) must call this once right after
  /// fork() or every submit() would queue forever. Only safe when the pools
  /// were quiescent at fork time — no task mid-run, no concurrent
  /// enqueue/construction — which the proc launcher guarantees by forking
  /// before any rank work starts.
  static void restart_all_after_fork();

 private:
  void worker_loop() ZI_EXCLUDES(mutex_);
  void restart_after_fork();
  /// Start workers 0 .. n-1, each pinning itself and naming its track.
  void spawn_workers(std::size_t n);

  std::string name_;  ///< immutable after construction
  /// The constructing thread's CPUs, ascending; immutable after
  /// construction.
  std::vector<int> cpus_;
  mutable Mutex mutex_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::deque<std::function<void()>> queue_ ZI_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  std::size_t active_ ZI_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ ZI_GUARDED_BY(mutex_) = 0;
  bool stop_ ZI_GUARDED_BY(mutex_) = false;
};

}  // namespace zi
