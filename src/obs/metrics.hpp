// MetricsSink — per-step machine-readable training metrics as JSON lines.
//
// Each ZeroEngine::train_step, when metrics are enabled, snapshots the
// existing counter surfaces (CommTraffic, AioEngine::Stats,
// ParamCoordinator::Stats, MemoryAccountant, DeviceArena/PinnedBufferPool)
// into a StepReport — step time and phase breakdown, bytes moved per tier
// and per collective, arena high-water, prefetch hit rate — and appends one
// JSON object per line to the ZI_METRICS=<path> file. One line per
// (step, rank); comm and AIO counters are shared across ranks and are
// reported as world-aggregate deltas sampled at the rank's step boundaries.
//
// Disabled cost is one relaxed atomic load per step (the fault_injector
// pattern): the snapshotting itself only runs when enabled. Like trace.hpp
// this header is std-only so any layer can use it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace zi {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// One training step's metrics on one rank. Counter fields are DELTAS over
/// the step unless named *_used / *_peak (absolute occupancy / high-water).
struct StepReport {
  std::int64_t step = 0;
  int rank = 0;
  int world = 1;
  float loss = 0.0f;
  bool skipped = false;  ///< fp16 overflow: optimizer step was skipped

  // Wall-clock phase breakdown (seconds).
  double step_seconds = 0.0;
  double fwd_seconds = 0.0;
  double bwd_seconds = 0.0;
  double opt_seconds = 0.0;
  double fetch_seconds = 0.0;   ///< coordinator gather time (inside fwd/bwd)
  double reduce_seconds = 0.0;  ///< gradient reduce-scatter time (inside bwd)

  // Collective traffic deltas (bytes; world-aggregate — see header comment).
  std::uint64_t allgather_bytes = 0;
  std::uint64_t reduce_scatter_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t collectives = 0;
  std::uint64_t barriers = 0;

  // AIO engine deltas (shared engine — world-aggregate).
  std::uint64_t aio_bytes_read = 0;
  std::uint64_t aio_bytes_written = 0;
  std::uint64_t aio_requests = 0;
  std::uint64_t aio_retries = 0;

  // Coordinator deltas (this rank; zero for stages 0-2).
  std::uint64_t fetches = 0;
  std::uint64_t releases = 0;
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_drops = 0;
  double prefetch_hit_rate = 0.0;  ///< hits/issued this step (0 when none)
  std::uint64_t grads_reduced = 0;

  // DataMover per-route deltas (this rank): payload bytes moved on each of
  // the six tier routes, plus transfer counts, wait/copy time, and how the
  // staging decisions split between pinned leases and heap fallbacks.
  std::uint64_t move_gpu_fetch_bytes = 0;   ///< gpu>host
  std::uint64_t move_gpu_spill_bytes = 0;   ///< host>gpu
  std::uint64_t move_cpu_fetch_bytes = 0;   ///< cpu>host
  std::uint64_t move_cpu_spill_bytes = 0;   ///< host>cpu
  std::uint64_t move_nvme_fetch_bytes = 0;  ///< nvme>host
  std::uint64_t move_nvme_spill_bytes = 0;  ///< host>nvme
  std::uint64_t move_kv_fetch_bytes = 0;    ///< kv>host (serving decode)
  std::uint64_t move_kv_spill_bytes = 0;    ///< host>kv (serving decode)
  std::uint64_t move_transfers = 0;         ///< transfers issued, all routes
  double move_wait_seconds = 0.0;  ///< eager copy + async wait time
  std::uint64_t staged_pinned = 0;  ///< stage() served from the pinned pool
  std::uint64_t staged_heap = 0;    ///< stage() fell back to heap

  // Transfer scheduler deltas (this rank): how the priority stage between
  // DataMover and the AIO engine ordered the step's NVMe traffic.
  std::uint64_t sched_preemptions = 0;  ///< latency issued ahead of bulk
  double sched_latency_wait_seconds = 0.0;  ///< latency-class submit→issue
  double sched_bulk_wait_seconds = 0.0;     ///< bulk-class submit→issue

  // Memory (this rank, absolute bytes): GPU from the device arena, CPU and
  // NVMe from the accountant.
  std::uint64_t gpu_used = 0;
  std::uint64_t gpu_peak = 0;
  std::uint64_t cpu_used = 0;
  std::uint64_t cpu_peak = 0;
  std::uint64_t nvme_used = 0;
  std::uint64_t nvme_peak = 0;
  std::uint64_t pinned_blocked = 0;   ///< cumulative blocked pinned acquires

  // Failure tolerance (process-wide cumulative counters + world health —
  // they survive elastic teardown/relaunch, unlike per-world traffic).
  std::uint64_t comm_aborts = 0;       ///< comm ops aborted or timed out
  std::uint64_t elastic_restarts = 0;  ///< elastic world relaunches
  /// True max heartbeat age over the step, across ranks: the larger of the
  /// currently open gap and any gap that closed during the step (from the
  /// WorldHealth max-gap watermark) — a stall that starts and ends inside
  /// one step is no longer invisible to the report.
  double heartbeat_max_age_ms = 0.0;
  double step_ewma_ms = 0.0;    ///< this rank's busy-time EWMA (0 = detection off)
  int straggler_rank = -1;      ///< straggler verdict so far, or -1

  /// One JSON object, no trailing newline.
  std::string to_json_line() const;
};

class MetricsSink {
 public:
  static MetricsSink& instance();

  /// The per-step gate: one relaxed atomic load.
  static bool enabled() noexcept {
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
  }

  /// Open (truncating) `path` for JSONL output and enable the sink.
  void open(std::string path);
  /// Flush, close, and disable.
  void close();

  /// Re-read ZI_METRICS=<path>; runs once automatically at static-init
  /// time, public so tests can re-drive it after setenv().
  void init_from_env();

  /// Append one line (thread-safe; ranks interleave whole lines).
  void write(const StepReport& report);

  std::uint64_t lines_written() const;

  struct Impl;  // opaque; defined in metrics.cpp

 private:
  MetricsSink() = default;
  Impl& impl() const;
};

}  // namespace zi
