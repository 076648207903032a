// Clang thread-safety annotations + an annotated mutex shim.
//
// The reproduction is concurrency all the way down: rank threads synchronize
// through shared-memory collectives, and the DeepNVMe analog races I/O
// workers against the training loop. This header makes the locking
// discipline *checkable*:
//
//   * ZI_GUARDED_BY / ZI_REQUIRES / ZI_ACQUIRE / ZI_RELEASE / ZI_EXCLUDES
//     wrap Clang's -Wthread-safety attributes (no-ops on GCC), so a Clang
//     build statically rejects guarded-state access without the right lock.
//   * zi::Mutex / zi::LockGuard / zi::UniqueLock / zi::CondVar are drop-in
//     annotated replacements for the std primitives: a bare std::mutex and
//     std::condition_variable underneath, plus the capability attributes.
//
// Lock-order inversions are TSan's job (its deadlock detector runs in the
// ZI_SANITIZE=thread lane); DESIGN.md §5 lists every lock and the one
// nesting order.
//
// Style note for annotated code: prefer explicit `while (!cond) cv.wait(l);`
// loops over predicate-lambda waits — Clang analyzes lambdas as separate
// functions and flags guarded reads inside them as unprotected.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (abseil-style). Active under Clang, empty otherwise.

#if defined(__clang__)
#define ZI_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ZI_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex").
#define ZI_CAPABILITY(x) ZI_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define ZI_SCOPED_CAPABILITY ZI_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a data member is protected by the given mutex.
#define ZI_GUARDED_BY(x) ZI_THREAD_ANNOTATION_(guarded_by(x))

/// Declares that the pointed-to data is protected by the given mutex.
#define ZI_PT_GUARDED_BY(x) ZI_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the given mutex(es) to be held by the caller.
#define ZI_REQUIRES(...) \
  ZI_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the mutex and holds it on return.
#define ZI_ACQUIRE(...) ZI_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the mutex.
#define ZI_RELEASE(...) ZI_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns `ret`.
#define ZI_TRY_ACQUIRE(ret, ...) \
  ZI_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Function must be called WITHOUT the given mutex held (it will take it).
#define ZI_EXCLUDES(...) ZI_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Documents required acquisition order between mutex members.
#define ZI_ACQUIRED_BEFORE(...) \
  ZI_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ZI_ACQUIRED_AFTER(...) \
  ZI_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given mutex.
#define ZI_RETURN_CAPABILITY(x) ZI_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch — the function is deliberately outside the analysis.
#define ZI_NO_THREAD_SAFETY_ANALYSIS \
  ZI_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace zi {

class CondVar;

/// Annotated mutex: exactly a std::mutex, visible to the Clang analysis.
class ZI_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() noexcept = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ZI_ACQUIRE() { m_.lock(); }
  void unlock() ZI_RELEASE() { m_.unlock(); }
  bool try_lock() ZI_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// std::lock_guard over zi::Mutex.
class ZI_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) ZI_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() ZI_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// std::unique_lock over zi::Mutex (the waitable flavor, for CondVar).
class ZI_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) ZI_ACQUIRE(m) : m_(&m), owns_(true) {
    m_->lock();
  }
  // Contract for callers: the scope releases at destruction. The body is
  // exempt from analysis because the release is conditional on owns_, which
  // the static analysis cannot track.
  ~UniqueLock() ZI_RELEASE() ZI_NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) m_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ZI_ACQUIRE() {
    m_->lock();
    owns_ = true;
  }
  void unlock() ZI_RELEASE() {
    m_->unlock();
    owns_ = false;
  }
  bool owns_lock() const noexcept { return owns_; }
  Mutex* mutex() const noexcept { return m_; }

 private:
  Mutex* m_;
  bool owns_;
};

/// Condition variable paired with zi::Mutex/UniqueLock. Waits go through the
/// native std::condition_variable (no condition_variable_any overhead); the
/// static analysis treats the mutex as held across the wait's internal
/// unlock/relock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) {
    std::unique_lock<std::mutex> native(lock.mutex()->m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with `lock`
  }

  /// Timed wait; returns false if `rel_time` elapsed without a notification
  /// (callers must re-check their predicate either way).
  template <typename Rep, typename Period>
  bool wait_for(UniqueLock& lock,
                const std::chrono::duration<Rep, Period>& rel_time) {
    std::unique_lock<std::mutex> native(lock.mutex()->m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, rel_time);
    native.release();  // ownership stays with `lock`
    return status == std::cv_status::no_timeout;
  }

  /// Predicate wait. NOTE: inside annotated classes prefer an explicit
  /// `while (!cond) cv.wait(lock);` loop — Clang's analysis cannot see that
  /// a predicate lambda runs under the lock.
  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred) ZI_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) wait(lock);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace zi
