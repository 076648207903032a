// Tracer — per-thread ring-buffered span events exported as Chrome
// trace-event JSON (viewable in Perfetto / chrome://tracing).
//
// Every instrumented site costs ONE relaxed atomic load while tracing is
// disabled — the same pattern as testing/fault_injector.hpp: a process-wide
// flag gates everything, and the singleton (rings, registry, output path) is
// never touched when off.
//
// Enabled sites append fixed-size events to a per-thread ring buffer (one
// Perfetto track per thread; rank threads are named "rank<r>" by
// run_ranks(), AIO workers "aio<i>" by their ThreadPool). Rings have a
// fixed capacity; when full the oldest events are overwritten and counted
// as dropped, so tracing never grows memory unboundedly.
//
// Activation: export ZI_TRACE=<path> before process start — the trace is
// written to <path> at exit — or drive Tracer programmatically (tests,
// benches). Span taxonomy (category / name):
//   engine  step, fwd, bwd, opt        (ZeroEngine::train_step phases)
//   coord   gather:<p>, reduce:<p>, prefetch:<p>   (ParamCoordinator)
//   comm    allgather, reduce_scatter, broadcast, allreduce, gather,
//           barrier, wait              (Communicator collectives; wait is
//                                      one barrier round inside them)
//   aio     read, write, retry         (AioEngine sub-requests)
//   move    gpu>host, host>gpu, cpu>host, host>cpu, nvme>host, host>nvme
//                                      (DataMover, one span per transfer)
//   mem     arena_alloc, pinned_acquire
//
// This header is dependency-free (std only) so every layer — including
// zi_common itself — can link against it without cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace zi {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

class Tracer {
 public:
  struct Stats {
    std::uint64_t events_recorded = 0;  ///< events offered to the rings
    std::uint64_t events_dropped = 0;   ///< overwritten by ring wraparound
    std::uint64_t threads = 0;          ///< rings (threads that traced)
  };

  static Tracer& instance();

  /// The per-site gate: one relaxed atomic load.
  static bool enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
  }

  /// Where flush() (and the atexit hook) writes the JSON.
  void set_output_path(std::string path);

  /// Re-read ZI_TRACE: when set, configures the output path, enables
  /// tracing, and registers an atexit flush. Runs once automatically at
  /// static-init time; public so tests can re-drive it after setenv().
  void init_from_env();

  /// Name the calling thread's Perfetto track ("rank0", "aio2", ...). Safe
  /// to call whether or not tracing is enabled yet; the name sticks to the
  /// thread and is applied when its ring is created.
  static void set_thread_name(const std::string& name);

  /// Ring capacity (events per thread) for rings created AFTER this call.
  void set_ring_capacity(std::size_t events);

  /// Record a complete span ('X') on the calling thread's ring. `args` is a
  /// pre-formatted JSON object body ("\"bytes\":123") or empty.
  void record_complete(const char* cat, std::string name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, std::string args = {});
  /// Record an instant event ('i').
  void record_instant(const char* cat, std::string name,
                      std::string args = {});

  /// Nanoseconds since the process trace epoch (steady clock).
  static std::uint64_t now_ns();

  /// Assemble the Chrome trace-event JSON document from all rings.
  std::string export_json() const;
  /// export_json() to a file; logs to stderr and returns false on failure.
  bool write_json(const std::string& path) const;
  /// write_json(output path) when one is configured; no-op otherwise.
  void flush() const;

  /// Clear all ring contents and counters (thread names survive). Tests.
  void reset();

  Stats stats() const;

  struct Impl;  // opaque; defined in trace.cpp

 private:
  Tracer() = default;
  Impl& impl() const;
};

/// RAII complete-span timer. Default construction is free; begin() arms it.
/// Use through ZI_TRACE_SPAN so the name expression is only evaluated when
/// tracing is enabled.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (active_) finish();
  }

  void begin(const char* cat, std::string name, std::string args = {}) {
    cat_ = cat;
    name_ = std::move(name);
    args_ = std::move(args);
    start_ns_ = Tracer::now_ns();
    active_ = true;
  }

 private:
  void finish();

  const char* cat_ = nullptr;
  std::string name_;
  std::string args_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

#define ZI_OBS_CONCAT_INNER(a, b) a##b
#define ZI_OBS_CONCAT(a, b) ZI_OBS_CONCAT_INNER(a, b)

/// Scoped span: ZI_TRACE_SPAN("coord", "gather:" + p->name()); the name and
/// args expressions are evaluated only when tracing is enabled (disabled
/// cost: one relaxed atomic load).
#define ZI_TRACE_SPAN(...)                                          \
  ::zi::TraceSpan ZI_OBS_CONCAT(zi_trace_span_, __LINE__);          \
  if (::zi::Tracer::enabled()) {                                    \
    ZI_OBS_CONCAT(zi_trace_span_, __LINE__).begin(__VA_ARGS__);     \
  }                                                                 \
  static_assert(true, "require semicolon")

/// Point event, same lazy-evaluation contract.
#define ZI_TRACE_INSTANT(...)                                       \
  do {                                                              \
    if (::zi::Tracer::enabled()) {                                  \
      ::zi::Tracer::instance().record_instant(__VA_ARGS__);         \
    }                                                               \
  } while (0)

}  // namespace zi
