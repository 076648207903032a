#include "common/thread_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <new>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace zi {

namespace {

// Registry of live pools so a forked rank subprocess can respawn their
// workers (restart_all_after_fork). Touched only in ctor/dtor and right
// after fork, all points where no pool is concurrently mutating.
Mutex g_registry_mutex;
std::vector<ThreadPool*> g_registry ZI_GUARDED_BY(g_registry_mutex);

/// The CPUs the calling thread may run on, ascending (empty if unknown).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_calling_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a refused mask leaves the worker where it was.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)), cpus_(allowed_cpus()) {
  spawn_workers(num_threads == 0 ? 1 : num_threads);
  LockGuard lock(g_registry_mutex);
  g_registry.push_back(this);
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(g_registry_mutex);
    g_registry.erase(std::remove(g_registry.begin(), g_registry.end(), this),
                     g_registry.end());
  }
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::restart_all_after_fork() {
  LockGuard lock(g_registry_mutex);
  for (ThreadPool* pool : g_registry) pool->restart_after_fork();
}

void ThreadPool::restart_after_fork() {
  // The parent's worker threads do not exist in this process; the inherited
  // std::thread handles are stale. Detach them (never join a thread that is
  // not ours), clear the counters a mid-fork snapshot may have smeared, and
  // spawn fresh workers. Queued tasks survive and run on the new workers.
  const std::size_t num_threads = workers_.size();
  for (auto& w : workers_) {
    if (w.joinable()) w.detach();
  }
  workers_.clear();
  // The parent's idle workers were blocked *inside* cv_task_.wait() at fork
  // time, so the inherited pthread condvar (and possibly mutex) state
  // carries stale waiter accounting — a notify in this process can wake a
  // ghost waiter and be lost, wedging the new workers forever. Abandon that
  // state and construct fresh primitives in place (running the destructor
  // on a condvar with waiters is UB; placement-new over it is the
  // fork-safe move). Single-threaded here, so the unguarded writes are
  // safe.
  new (&mutex_) Mutex();
  new (&cv_task_) CondVar();
  new (&cv_idle_) CondVar();
  {
    LockGuard lock(mutex_);
    active_ = 0;
    stop_ = false;
  }
  spawn_workers(num_threads);
}

void ThreadPool::spawn_workers(std::size_t n) {
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      // Workers sharing a multi-CPU mask would otherwise be stacked on one
      // CPU by the kernel and run their I/O one at a time.
      if (cpus_.size() > 1) pin_calling_thread(cpus_[i % cpus_.size()]);
      if (!name_.empty()) {
        Tracer::set_thread_name(name_ + std::to_string(i));
      }
      worker_loop();
    });
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  ZI_CHECK(fn != nullptr);
  {
    LockGuard lock(mutex_);
    ZI_CHECK_MSG(!stop_, "enqueue after ThreadPool shutdown");
    queue_.push_back(std::move(fn));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) cv_idle_.wait(lock);
}

std::uint64_t ThreadPool::tasks_completed() const {
  LockGuard lock(mutex_);
  return completed_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();  // exceptions surface via packaged_task futures
    {
      LockGuard lock(mutex_);
      --active_;
      ++completed_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace zi
