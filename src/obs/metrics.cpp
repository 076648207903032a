#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/thread_annotations.hpp"

namespace zi {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  out += ',';
}

void append_kv(std::string& out, const char* key, std::int64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  out += ',';
}

void append_kv(std::string& out, const char* key, int v) {
  append_kv(out, key, static_cast<std::int64_t>(v));
}

void append_kv(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.9g,", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += "\":";
  out += v ? "true" : "false";
  out += ',';
}

}  // namespace

std::string StepReport::to_json_line() const {
  std::string out;
  out.reserve(768);
  out += '{';
  append_kv(out, "step", step);
  append_kv(out, "rank", rank);
  append_kv(out, "world", world);
  append_kv(out, "loss", static_cast<double>(loss));
  append_kv(out, "skipped", skipped);
  append_kv(out, "step_seconds", step_seconds);
  append_kv(out, "fwd_seconds", fwd_seconds);
  append_kv(out, "bwd_seconds", bwd_seconds);
  append_kv(out, "opt_seconds", opt_seconds);
  append_kv(out, "fetch_seconds", fetch_seconds);
  append_kv(out, "reduce_seconds", reduce_seconds);
  append_kv(out, "allgather_bytes", allgather_bytes);
  append_kv(out, "reduce_scatter_bytes", reduce_scatter_bytes);
  append_kv(out, "broadcast_bytes", broadcast_bytes);
  append_kv(out, "allreduce_bytes", allreduce_bytes);
  append_kv(out, "collectives", collectives);
  append_kv(out, "barriers", barriers);
  append_kv(out, "aio_bytes_read", aio_bytes_read);
  append_kv(out, "aio_bytes_written", aio_bytes_written);
  append_kv(out, "aio_requests", aio_requests);
  append_kv(out, "aio_retries", aio_retries);
  append_kv(out, "fetches", fetches);
  append_kv(out, "releases", releases);
  append_kv(out, "prefetches_issued", prefetches_issued);
  append_kv(out, "prefetch_hits", prefetch_hits);
  append_kv(out, "prefetch_drops", prefetch_drops);
  append_kv(out, "prefetch_hit_rate", prefetch_hit_rate);
  append_kv(out, "grads_reduced", grads_reduced);
  append_kv(out, "move_gpu_fetch_bytes", move_gpu_fetch_bytes);
  append_kv(out, "move_gpu_spill_bytes", move_gpu_spill_bytes);
  append_kv(out, "move_cpu_fetch_bytes", move_cpu_fetch_bytes);
  append_kv(out, "move_cpu_spill_bytes", move_cpu_spill_bytes);
  append_kv(out, "move_nvme_fetch_bytes", move_nvme_fetch_bytes);
  append_kv(out, "move_nvme_spill_bytes", move_nvme_spill_bytes);
  append_kv(out, "move_kv_fetch_bytes", move_kv_fetch_bytes);
  append_kv(out, "move_kv_spill_bytes", move_kv_spill_bytes);
  append_kv(out, "move_transfers", move_transfers);
  append_kv(out, "move_wait_seconds", move_wait_seconds);
  append_kv(out, "staged_pinned", staged_pinned);
  append_kv(out, "staged_heap", staged_heap);
  append_kv(out, "sched_preemptions", sched_preemptions);
  append_kv(out, "sched_latency_wait_seconds", sched_latency_wait_seconds);
  append_kv(out, "sched_bulk_wait_seconds", sched_bulk_wait_seconds);
  append_kv(out, "gpu_used", gpu_used);
  append_kv(out, "gpu_peak", gpu_peak);
  append_kv(out, "cpu_used", cpu_used);
  append_kv(out, "cpu_peak", cpu_peak);
  append_kv(out, "nvme_used", nvme_used);
  append_kv(out, "nvme_peak", nvme_peak);
  append_kv(out, "arena_peak", arena_peak);
  append_kv(out, "pinned_blocked", pinned_blocked);
  append_kv(out, "comm_aborts", comm_aborts);
  append_kv(out, "elastic_restarts", elastic_restarts);
  append_kv(out, "heartbeat_max_age_ms", heartbeat_max_age_ms);
  append_kv(out, "step_ewma_ms", step_ewma_ms);
  append_kv(out, "straggler_rank", straggler_rank);
  out.back() = '}';  // replace the trailing comma
  return out;
}

struct MetricsSink::Impl {
  mutable Mutex mutex;
  std::ofstream out ZI_GUARDED_BY(mutex);
  std::string path ZI_GUARDED_BY(mutex);
  std::uint64_t lines ZI_GUARDED_BY(mutex) = 0;
};

MetricsSink::Impl& MetricsSink::impl() const {
  static Impl* impl = new Impl;  // leaked: writes may race static teardown
  return *impl;
}

MetricsSink& MetricsSink::instance() {
  static MetricsSink* sink = new MetricsSink;
  return *sink;
}

void MetricsSink::open(std::string path) {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  im.out.close();
  im.out.clear();
  im.out.open(path, std::ios::trunc);
  if (!im.out.good()) {
    std::fprintf(stderr, "[zi] ZI_METRICS: cannot open %s for writing\n",
                 path.c_str());
    detail::g_metrics_enabled.store(false, std::memory_order_relaxed);
    return;
  }
  im.path = std::move(path);
  detail::g_metrics_enabled.store(true, std::memory_order_relaxed);
}

void MetricsSink::close() {
  detail::g_metrics_enabled.store(false, std::memory_order_relaxed);
  Impl& im = impl();
  LockGuard lock(im.mutex);
  im.out.flush();
  im.out.close();
  im.path.clear();
}

void MetricsSink::init_from_env() {
  const char* path = std::getenv("ZI_METRICS");
  if (path == nullptr || path[0] == '\0') return;
  open(path);
}

void MetricsSink::write(const StepReport& report) {
  const std::string line = report.to_json_line();
  Impl& im = impl();
  LockGuard lock(im.mutex);
  if (!im.out.is_open()) return;
  im.out << line << '\n';
  im.out.flush();  // step granularity: durability beats buffering
  ++im.lines;
}

std::uint64_t MetricsSink::lines_written() const {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  return im.lines;
}

namespace {
/// Static-init activation: ZI_METRICS=<path> arms the sink before main().
struct MetricsEnvInit {
  MetricsEnvInit() { MetricsSink::instance().init_from_env(); }
};
MetricsEnvInit g_metrics_env_init;
}  // namespace

}  // namespace zi
