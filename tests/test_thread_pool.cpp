#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace zi {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.enqueue([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.tasks_completed(), 1000u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.enqueue([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, ResultsFromManyWorkers) {
  ThreadPool pool(8);
  std::vector<std::future<int>> futs;
  futs.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.enqueue([&count] { count.fetch_add(1); });
    }
  }  // destructor joins after queue empties
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// Worker placement: worker i of a pool built on a thread with a k-CPU mask
// runs on the (i mod k)-th CPU of that mask.

using CpuList = std::vector<int>;

CpuList current_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CpuList cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void set_current_cpus(const CpuList& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(set), &set), 0);
}

/// A pool of `n` workers constructed on a fresh thread whose mask is `cpus`.
std::unique_ptr<ThreadPool> pool_built_on(const CpuList& cpus, std::size_t n) {
  std::unique_ptr<ThreadPool> pool;
  std::thread([&] {
    set_current_cpus(cpus);
    pool = std::make_unique<ThreadPool>(n);
  }).join();
  return pool;
}

/// Every worker's CPU mask, sorted: n tasks that each hold their worker
/// until all n have started, so each worker runs exactly one. Empty if the
/// workers did not all start within ten seconds.
std::vector<CpuList> worker_masks(ThreadPool& pool) {
  const std::size_t n = pool.size();
  std::atomic<std::size_t> started{0};
  std::atomic<bool> timed_out{false};
  std::vector<std::future<CpuList>> futs;
  for (std::size_t i = 0; i < n; ++i) {
    futs.push_back(pool.submit([&] {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < n) {
        if (std::chrono::steady_clock::now() > deadline) timed_out = true;
        if (timed_out) break;
        std::this_thread::yield();
      }
      return current_cpus();
    }));
  }
  std::vector<CpuList> masks;
  for (auto& f : futs) masks.push_back(f.get());
  if (timed_out) return {};
  std::sort(masks.begin(), masks.end());
  return masks;
}

/// What worker_masks should read for `n` workers placed over `cpus`.
std::vector<CpuList> expected_masks(const CpuList& cpus, std::size_t n) {
  std::vector<CpuList> masks;
  for (std::size_t i = 0; i < n; ++i) masks.push_back({cpus[i % cpus.size()]});
  std::sort(masks.begin(), masks.end());
  return masks;
}

/// The last two CPUs this process may use (empty on a 1-CPU host).
CpuList two_cpus() {
  const CpuList all = current_cpus();
  if (all.size() < 2) return {};
  return {all.end() - 2, all.end()};
}

TEST(ThreadPoolPlacement, WorkerIRunsOnTheIthCpuOfTheInheritedMask) {
  const CpuList all = current_cpus();
  if (all.size() < 2) GTEST_SKIP() << "one CPU: there is nothing to spread";
  for (const CpuList& cpus : {two_cpus(), all}) {
    // One worker more than CPUs, so the placement wraps around.
    auto pool = pool_built_on(cpus, cpus.size() + 1);
    EXPECT_EQ(worker_masks(*pool), expected_masks(cpus, pool->size()))
        << cpus.size() << "-CPU mask";
  }
}

TEST(ThreadPoolPlacement, OneCpuMaskIsLeftAsIs) {
  const CpuList all = current_cpus();
  ASSERT_FALSE(all.empty());
  const CpuList one = {all.back()};
  auto pool = pool_built_on(one, 3);
  EXPECT_EQ(worker_masks(*pool), std::vector<CpuList>(3, one));
}

TEST(ThreadPoolPlacement, PlacementSurvivesRestartAfterFork) {
  if (current_cpus().size() < 3) {
    GTEST_SKIP() << "needs three CPUs, so that the forking thread's mask "
                    "differs from the pool's";
  }
  if (kTsan) {
    GTEST_SKIP() << "threads started after a multi-threaded fork are not "
                    "TSan-instrumentable; the plain build runs this test";
  }
  // The pool takes the last two CPUs; the forking thread keeps them all, so
  // the respawned workers must place themselves from the pool's mask.
  const CpuList cpus = two_cpus();
  auto pool = pool_built_on(cpus, 2);
  pool->wait_idle();  // quiescent at fork time, as the proc launcher forks
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ThreadPool::restart_all_after_fork();
    const bool placed = worker_masks(*pool) == expected_masks(cpus, 2);
    std::_Exit(placed ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "respawned workers lost the placement";
  // The parent's workers are untouched.
  EXPECT_EQ(worker_masks(*pool), expected_masks(cpus, 2));
}

}  // namespace
}  // namespace zi
