// The four workloads, their measured windows and their correctness gates.
//
// Every workload runs in worlds of kWorld rank threads over the inproc
// transport (no watchdog) with an AioEngine of kAioWorkers threads. Inputs
// come from the counter-based Rng keyed by the seed; the engines see only
// the generated arrays. Warm-up (where the prefetch trace is recorded) is
// never timed.
//
// Timings are reported at a reference core pace. On the reference host (a
// shared 4-vCPU virtual machine) the same code runs up to twice as fast in
// one minute as in the next, in phases lasting seconds to minutes, because
// other tenants share the physical cores. Between two operations every rank
// times a fixed GEMM on its own CPU and on one AIO CPU (CorePace), and each
// operation's time is scaled by kPaceNominalMs over the mean pace around it.
// Over ten runs this took the spread of median step time from about 30% to
// under 5%. The raw timings stay available as per-layer metrics.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/stream_engine.hpp"
#include "model/gpt.hpp"
#include "obs/serve_report.hpp"
#include "obs/trace.hpp"
#include "serve/serve_engine.hpp"

namespace zb {

using namespace zi;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Engine set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Untimed warm-up steps. The training gate replays exactly these.
constexpr int kWarmupSteps = 3;
/// Simulated GPU memory per rank: ample for these models, and small enough
/// that zero-filling it does not dominate set-up time.
constexpr std::uint64_t kArenaBytes = 64ull << 20;
/// CorePace's time for one multiply on an idle core of the reference host.
/// Reported timings are what the operation would take at this pace.
constexpr double kPaceNominalMs = 0.40;

AioConfig aio_config() {
  AioConfig c;
  c.num_workers = kAioWorkers;
  return c;
}

// --- core pace --------------------------------------------------------------

/// Pins the calling thread to `cpus` (modulo the machine's CPU count).
void pin_to(std::initializer_list<int> cpus) {
  const int n =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Rank r runs on CPU r; the AIO workers share CPUs kWorld .. 2*kWorld-1.
int aio_cpu(int i) { return kWorld + i; }

/// Gauges how fast a CPU runs right now: a 96x96 fp32 GEMM in the
/// program's own i-k-j form, whose operands stay in L2.
class CorePace {
 public:
  CorePace() {
    for (int i = 0; i < kN * kN; ++i) {
      a_[static_cast<std::size_t>(i)] = static_cast<float>(i % 7);
      b_[static_cast<std::size_t>(i)] = static_cast<float>(i % 5);
    }
  }

  /// Median time of one multiply, in ms, on `cpu`; the calling thread
  /// moves there and back to `home`.
  double probe_ms(int cpu, int home) {
    pin_to({cpu});
    multiply();  // operands back into cache
    double t[kReps];
    for (double& x : t) {
      const auto t0 = Clock::now();
      multiply();
      x = 1e3 * since(t0);
    }
    pin_to({home});
    std::sort(t, t + kReps);
    return t[kReps / 2];
  }

 private:
  static constexpr int kN = 96;
  static constexpr int kReps = 3;

  void multiply() {
    for (int i = 0; i < kN; ++i) {
      float* crow = c_.data() + i * kN;
      std::fill(crow, crow + kN, 0.0f);
      for (int p = 0; p < kN; ++p) {
        const float av = a_[static_cast<std::size_t>(i * kN + p)];
        const float* brow = b_.data() + p * kN;
        for (int j = 0; j < kN; ++j) crow[j] += av * brow[j];
      }
    }
    sink_ = sink_ + c_[static_cast<std::size_t>(kN * kN / 2)];
  }

  std::vector<float> a_ = std::vector<float>(kN * kN);
  std::vector<float> b_ = std::vector<float>(kN * kN);
  std::vector<float> c_ = std::vector<float>(kN * kN);
  volatile float sink_ = 0;  // keeps the multiplies from being elided
};

/// A rank's share of the machine pace: its own CPU and one AIO CPU.
double rank_pace_ms(CorePace& pace, int rank) {
  return 0.5 * (pace.probe_ms(rank, rank) + pace.probe_ms(aio_cpu(rank), rank));
}

// --- counters ---------------------------------------------------------------

/// Public counters by name. Per-rank surfaces are summed over ranks; comm
/// traffic (inproc) and the shared AIO engine are world-wide already.
using Counters = std::map<std::string, double>;

struct Peaks {
  double gpu = 0, cpu = 0, nvme = 0, pinned = 0;
};

Counters rank_counters(RankResources& res, const StreamCoordinator& coord,
                       const OptimizerDriver* opt) {
  Counters c;
  const StreamCoordinator::Stats& cs = coord.stats();
  c["gathers"] = static_cast<double>(cs.fetches);
  c["prefetches_issued"] = static_cast<double>(cs.prefetches_issued);
  c["prefetch_hits"] = static_cast<double>(cs.prefetch_hits);
  c["prefetch_drops"] = static_cast<double>(cs.prefetch_drops);
  c["opt_chunks"] =
      opt != nullptr ? static_cast<double>(opt->stats().chunks_pipelined) : 0;
  const DataMover::Stats mv = res.mover().stats();
  c["nvme_fetch_bytes"] = static_cast<double>(mv.route(Route::kNvmeFetch).bytes);
  c["nvme_spill_bytes"] = static_cast<double>(mv.route(Route::kNvmeSpill).bytes);
  c["kv_fetch_bytes"] = static_cast<double>(mv.route(Route::kKvFetch).bytes);
  c["kv_spill_bytes"] = static_cast<double>(mv.route(Route::kKvSpill).bytes);
  c["transfers"] = static_cast<double>(mv.total_transfers());
  c["move_wait_s"] = mv.total_seconds();
  c["staged_pinned"] = static_cast<double>(mv.staged_pinned);
  c["staged_heap"] = static_cast<double>(mv.staged_heap);
  c["sched_scheduled"] = static_cast<double>(mv.sched.scheduled);
  c["sched_coalesced"] = static_cast<double>(mv.sched.coalesced_transfers);
  c["sched_latency_wait_s"] =
      1e-9 * static_cast<double>(
                 mv.sched.queue_ns[static_cast<int>(TransferClass::kLatency)]);
  c["sched_bulk_wait_s"] =
      1e-9 * static_cast<double>(
                 mv.sched.queue_ns[static_cast<int>(TransferClass::kBulk)]);
  c["pinned_blocked"] =
      static_cast<double>(res.pinned().stats().blocked_acquires);
  c["arena_allocs"] = static_cast<double>(res.gpu().stats().num_allocs);
  return c;
}

Counters shared_counters(const Communicator& comm, const AioEngine& aio) {
  Counters c;
  const CommTraffic& t = comm.traffic();
  c["collectives"] = static_cast<double>(t.collectives.load());
  c["allgather_bytes"] = static_cast<double>(t.allgather_bytes.load());
  c["reduce_scatter_bytes"] =
      static_cast<double>(t.reduce_scatter_bytes.load());
  c["broadcast_bytes"] = static_cast<double>(t.broadcast_bytes.load());
  c["allreduce_bytes"] = static_cast<double>(t.allreduce_bytes.load());
  const AioEngine::Stats s = aio.stats();
  c["aio_requests"] = static_cast<double>(s.requests);
  c["aio_sub_requests"] = static_cast<double>(s.sub_requests);
  c["aio_read_bytes"] = static_cast<double>(s.bytes_read);
  c["aio_write_bytes"] = static_cast<double>(s.bytes_written);
  c["aio_retries"] = static_cast<double>(s.retries);
  return c;
}

Peaks rank_peaks(RankResources& res) {
  Peaks p;
  p.gpu = static_cast<double>(res.gpu().stats().peak_used);
  p.cpu = static_cast<double>(res.accountant().peak(Tier::kCpu));
  p.nvme = static_cast<double>(res.accountant().peak(Tier::kNvme));
  p.pinned = static_cast<double>(res.pinned().stats().peak_in_use);
  return p;
}

/// One world's counters at one instant.
struct Snapshot {
  std::vector<Counters> ranks = std::vector<Counters>(kWorld);
  std::vector<Peaks> peaks = std::vector<Peaks>(kWorld);
  Counters shared;

  Counters total() const {
    Counters t = shared;
    for (const Counters& r : ranks) {
      for (const auto& [k, v] : r) t[k] += v;
    }
    return t;
  }
};

/// What one rank's engine exposes to the sampler.
struct Probe {
  AioEngine& aio;
  RankResources& res;
  const StreamCoordinator& coord;
  const OptimizerDriver* opt;  ///< null when serving

  void sample(Communicator& comm, Snapshot& s) const {
    const auto r = static_cast<std::size_t>(comm.rank());
    s.ranks[r] = rank_counters(res, coord, opt);
    s.peaks[r] = rank_peaks(res);
    if (comm.rank() == 0) s.shared = shared_counters(comm, aio);
  }
};

// --- measured windows -------------------------------------------------------

struct Window {
  std::int64_t ops = 0;     ///< train steps, or requests
  std::int64_t failed = 0;  ///< requests that did not complete
  double tokens = 0;        ///< tokens trained on, or generated
  double rss_mb = 0;        ///< process peak RSS at the end of the window
  std::vector<double> op_s;  ///< rank 0's wall time of each operation
  /// Each rank's pace at every operation boundary (before each operation
  /// and after the last).
  std::vector<std::vector<double>> pace =
      std::vector<std::vector<double>>(kWorld);
  std::vector<double> latency_s;           ///< per step, or per request
  std::vector<std::int64_t> latency_op;    ///< the operation of each
  std::vector<double> fwd_s, bwd_s, opt_s;  ///< training, rank 0
  std::vector<RequestReport> requests;      ///< serving, rank 0
  Counters delta;
  std::vector<Peaks> peaks;
  Attribution attr;
  std::uint64_t events_dropped = 0;
  std::string trace_json;  ///< the traced window's Chrome trace

  void add_latency(double s, std::int64_t op) {
    latency_s.push_back(s);
    latency_op.push_back(op);
  }

  /// Mean pace over the ranks at boundary `b`.
  double pace_at(std::size_t b) const {
    double sum = 0;
    int n = 0;
    for (const std::vector<double>& p : pace) {
      if (b < p.size()) {
        sum += p[b];
        ++n;
      }
    }
    return n > 0 ? sum / n : kPaceNominalMs;
  }

  /// Factor that takes operation `i`'s times to the nominal pace.
  double scale(std::int64_t i) const {
    const auto b = static_cast<std::size_t>(i);
    return kPaceNominalMs / (0.5 * (pace_at(b) + pace_at(b + 1)));
  }

  std::vector<double> paced_latency_s() const {
    std::vector<double> v(latency_s.size());
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = latency_s[k] * scale(latency_op[k]);
    }
    return v;
  }

  double paced_tokens_per_s() const {
    double busy = 0;
    for (std::size_t i = 0; i < op_s.size(); ++i) {
      busy += op_s[i] * scale(static_cast<std::int64_t>(i));
    }
    return safe_div(tokens, busy);
  }

  double pace_ms() const {
    std::vector<double> v;
    for (std::size_t b = 0; b <= op_s.size(); ++b) v.push_back(pace_at(b));
    return percentile(v, 50);
  }
};

/// Times one call into the program. While tracing, the call is recorded as
/// a `bench` span so per-layer self time can be charged against it.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  const std::uint64_t t0 = Tracer::now_ns();
  fn();
  const std::uint64_t dur = Tracer::now_ns() - t0;
  if (Tracer::enabled()) {
    Tracer::instance().record_complete("bench", name, t0, dur);
  }
  return 1e-9 * static_cast<double>(dur);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs `op(i)` in lockstep on every rank until rank 0 has spent `seconds`
/// in the window (at least one op), sampling counters between barriers on
/// either side. Before each op every rank gauges its pace, then rank 0
/// broadcasts a continue flag (which also lines the ranks up); those
/// broadcasts are subtracted from the comm counters.
template <class Op>
void measure(Communicator& comm, const Probe& probe, Window& w, bool traced,
             double seconds, Op op) {
  const bool root = comm.rank() == 0;
  const auto rank = static_cast<std::size_t>(comm.rank());
  Snapshot before, after;
  CorePace pace;
  comm.barrier();
  probe.sample(comm, before);
  if (root && traced) {
    Tracer::instance().reset();
    Tracer::instance().set_enabled(true);
  }
  comm.barrier();

  const auto t0 = Clock::now();
  std::int64_t n = 0;
  for (;; ++n) {
    w.pace[rank].push_back(rank_pace_ms(pace, comm.rank()));
    std::int32_t go = root && (n == 0 || since(t0) < seconds);
    comm.broadcast(std::span<std::int32_t>(&go, 1), 0);
    if (go == 0) break;
    const auto op_t0 = Clock::now();
    op(n);
    if (root) w.op_s.push_back(since(op_t0));
  }

  comm.barrier();
  if (root) {
    Tracer::instance().set_enabled(false);
    w.rss_mb = rss_peak_mb();
  }
  probe.sample(comm, after);
  comm.barrier();
  if (!root) return;

  w.delta = after.total();
  for (const auto& [k, v] : before.total()) w.delta[k] -= v;
  const double ctl = static_cast<double>((n + 1) * comm.size());
  w.delta["collectives"] -= ctl;
  w.delta["broadcast_bytes"] -= ctl * sizeof(std::int32_t);
  w.peaks = after.peaks;
  if (traced) {
    w.events_dropped = Tracer::instance().stats().events_dropped;
    w.trace_json = Tracer::instance().export_json();
    w.attr = attribute(w.trace_json);
  }
}

/// Builds the engines in kSetups fresh worlds, timing each from the AIO
/// engine's construction until every rank holds a built engine, at the
/// pace of the machine just before. The last world goes on to `use`.
/// Returns the set-up times in seconds.
template <class State, class Make, class Use>
std::vector<double> setup_then_run(const Options& o, Make make, Use use) {
  std::vector<double> setup_s;
  CorePace pace;
  for (int i = 0; i < kSetups; ++i) {
    const fs::path dir = o.scratch_dir / ("world" + std::to_string(i));
    fs::create_directories(dir);
    double p = 0;
    for (int cpu = 0; cpu < 2 * kWorld; ++cpu) p += pace.probe_ms(cpu, cpu);
    const double scale = kPaceNominalMs / (p / (2 * kWorld));
    pin_to({aio_cpu(0), aio_cpu(1)});  // inherited by the AIO workers
    const auto t0 = Clock::now();
    {
      AioEngine aio(aio_config());
      run_ranks(kWorld, WorldOptions{}, [&](Communicator& comm) {
        pin_to({comm.rank()});
        std::unique_ptr<State> state = make(comm, aio, dir);
        comm.barrier();
        if (comm.rank() == 0) setup_s.push_back(since(t0) * scale);
        if (i + 1 == kSetups) use(*state, comm, aio);
      });
    }
    fs::remove_all(dir);
  }
  return setup_s;
}

/// An untraced run measures one window of `seconds`; a traced run splits
/// it into an untraced and a traced half.
std::vector<bool> windows_of(const Options& o) {
  return o.trace ? std::vector<bool>{false, true} : std::vector<bool>{false};
}

double window_seconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

// --- results ----------------------------------------------------------------

void add_end_to_end(Result& r, const Window& w,
                    const std::vector<double>& setup_s) {
  double gpu_peak = 0;
  for (const Peaks& p : w.peaks) gpu_peak = std::max(gpu_peak, p.gpu);
  const std::vector<double> lat = w.paced_latency_s();
  r.add("latency_ms_p50", 1e3 * percentile(lat, 50), "ms");
  r.add("latency_ms_p90", 1e3 * percentile(lat, 90), "ms");
  r.add("gpu_peak_bytes", gpu_peak, "bytes");
  r.add("rss_peak_mb", w.rss_mb, "MiB");
  r.add("setup_s", percentile(setup_s, 50), "s");
}

/// Per-layer metrics. A "step" is a training step, or a serving decode
/// step. Times are per rank and step; counts and bytes are world totals
/// per step. Counters and spans come from the traced window; StepStats,
/// request timings and the trace overhead compare the untraced one.
void add_per_layer(Result& r, const Window& plain, const Window& tw,
                   bool serving, double weak_scaling_eff) {
  const Attribution& a = tw.attr;
  const Counters& d = tw.delta;
  auto get = [&d](const char* k) {
    const auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const double steps = static_cast<double>(
      serving ? a.decode_step_ns.size() : static_cast<std::size_t>(tw.ops));
  auto per_step = [&](double v) { return safe_div(v, steps); };
  auto ms_per_rank_step = [&](double ns) {
    return 1e-6 * safe_div(ns, steps * kWorld);
  };
  auto s_per_rank_step_ms = [&](double s) {
    return 1e3 * safe_div(s, steps * kWorld);
  };
  double cpu_peak = 0, nvme_peak = 0, pinned_peak = 0;
  for (const Peaks& p : tw.peaks) {
    cpu_peak = std::max(cpu_peak, p.cpu);
    nvme_peak = std::max(nvme_peak, p.nvme);
    pinned_peak = std::max(pinned_peak, p.pinned);
  }

  r.add("core.fwd_ms", 1e3 * percentile(plain.fwd_s, 50), "ms/step");
  r.add("core.bwd_ms", 1e3 * percentile(plain.bwd_s, 50), "ms/step");
  r.add("core.opt_ms", 1e3 * percentile(plain.opt_s, 50), "ms/step");
  r.add("core.compute_self_ms", ms_per_rank_step(a.compute_ns), "ms/step");
  r.add("core.opt_self_ms", ms_per_rank_step(a.opt_ns), "ms/step");
  r.add("optim.chunks", per_step(get("opt_chunks")), "count/step");

  r.add("coord.gathers", per_step(get("gathers")), "count/step");
  r.add("coord.prefetch_hit_frac",
        safe_div(get("prefetch_hits"), get("prefetches_issued")), "fraction");
  r.add("coord.prefetch_drops", per_step(get("prefetch_drops")), "count/step");
  r.add("coord.gather_self_ms", ms_per_rank_step(a.gather_ns), "ms/step");
  r.add("coord.reduce_self_ms", ms_per_rank_step(a.reduce_ns), "ms/step");

  r.add("comm.collectives", per_step(get("collectives")), "count/step");
  r.add("comm.allgather_bytes", per_step(get("allgather_bytes")), "bytes/step");
  r.add("comm.reduce_scatter_bytes", per_step(get("reduce_scatter_bytes")),
        "bytes/step");
  r.add("comm.broadcast_bytes", per_step(get("broadcast_bytes")), "bytes/step");
  r.add("comm.allreduce_bytes", per_step(get("allreduce_bytes")), "bytes/step");
  r.add("comm.self_ms", ms_per_rank_step(a.comm_ns), "ms/step");
  r.add("comm.weak_scaling_eff", weak_scaling_eff, "ratio");

  r.add("move.nvme_fetch_bytes", per_step(get("nvme_fetch_bytes")),
        "bytes/step");
  r.add("move.nvme_spill_bytes", per_step(get("nvme_spill_bytes")),
        "bytes/step");
  r.add("move.kv_fetch_bytes", per_step(get("kv_fetch_bytes")), "bytes/step");
  r.add("move.kv_spill_bytes", per_step(get("kv_spill_bytes")), "bytes/step");
  r.add("move.transfers", per_step(get("transfers")), "count/step");
  r.add("move.wait_ms", s_per_rank_step_ms(get("move_wait_s")), "ms/step");
  r.add("move.self_ms", ms_per_rank_step(a.move_ns), "ms/step");
  r.add("move.pinned_frac",
        safe_div(get("staged_pinned"),
                 get("staged_pinned") + get("staged_heap")),
        "fraction");
  r.add("move.coalesced_frac",
        safe_div(get("sched_coalesced"), get("sched_scheduled")), "fraction");
  r.add("move.sched_latency_wait_ms",
        s_per_rank_step_ms(get("sched_latency_wait_s")), "ms/step");
  r.add("move.sched_bulk_wait_ms",
        s_per_rank_step_ms(get("sched_bulk_wait_s")), "ms/step");

  r.add("aio.requests", per_step(get("aio_requests")), "count/step");
  r.add("aio.sub_requests", per_step(get("aio_sub_requests")), "count/step");
  r.add("aio.read_bytes", per_step(get("aio_read_bytes")), "bytes/step");
  r.add("aio.write_bytes", per_step(get("aio_write_bytes")), "bytes/step");
  r.add("aio.retries", per_step(get("aio_retries")), "count/step");
  r.add("aio.busy_ms", 1e-6 * per_step(a.aio_busy_ns), "ms/step");

  r.add("mem.cpu_peak_bytes", cpu_peak, "bytes");
  r.add("mem.nvme_peak_bytes", nvme_peak, "bytes");
  r.add("mem.pinned_peak", pinned_peak, "count");
  r.add("mem.pinned_blocked", per_step(get("pinned_blocked")), "count/step");
  r.add("mem.arena_allocs", per_step(get("arena_allocs")), "count/step");
  r.add("mem.self_ms", ms_per_rank_step(a.mem_ns), "ms/step");

  std::vector<double> queue, prefill, ttft, tpot;
  double tokens_out = 0;
  for (const RequestReport& q : plain.requests) {
    queue.push_back(q.queue_seconds);
    prefill.push_back(q.prefill_seconds);
    ttft.push_back(q.queue_seconds + q.prefill_seconds);
    if (q.tokens_out > 1) {
      tpot.push_back(q.decode_seconds / static_cast<double>(q.tokens_out - 1));
    }
  }
  for (const RequestReport& q : tw.requests) {
    tokens_out += static_cast<double>(q.tokens_out);
  }
  r.add("serve.queue_ms_p50", 1e3 * percentile(queue, 50), "ms");
  r.add("serve.prefill_ms_p50", 1e3 * percentile(prefill, 50), "ms");
  r.add("serve.ttft_ms_p50", 1e3 * percentile(ttft, 50), "ms");
  r.add("serve.ttft_ms_p90", 1e3 * percentile(ttft, 90), "ms");
  r.add("serve.tpot_ms_p50", 1e3 * percentile(tpot, 50), "ms/token");
  r.add("serve.decode_steps", static_cast<double>(a.decode_step_ns.size()),
        "count");
  r.add("serve.batch_mean", safe_div(tokens_out, steps), "tokens/step");
  r.add("serve.decode_step_ms_p50", 1e-6 * percentile(a.decode_step_ns, 50),
        "ms");
  r.add("serve.param_fetch_bytes_per_token",
        safe_div(get("nvme_fetch_bytes"), tokens_out), "bytes/token");
  r.add("serve.kv_fetch_bytes_per_token",
        safe_div(get("kv_fetch_bytes"), tokens_out), "bytes/token");

  r.add("obs.rank_ms", ms_per_rank_step(a.rank_ns), "ms/step");
  r.add("obs.unattributed_frac", safe_div(a.unattributed_ns, a.rank_ns),
        "fraction");
  r.add("obs.trace_overhead_frac",
        safe_div(percentile(tw.paced_latency_s(), 50),
                 percentile(plain.paced_latency_s(), 50)) -
            1.0,
        "fraction");
  r.add("obs.trace_events_dropped", static_cast<double>(tw.events_dropped),
        "count");
  r.add("obs.pace_ms", plain.pace_ms(), "ms");
  r.add("obs.raw_latency_ms_p50", 1e3 * percentile(plain.latency_s, 50), "ms");
}

/// Shared tail of every workload: attempts, failures and the metrics of
/// whichever run this is.
void finish(Result& r, const Options& o, const std::vector<Window>& windows,
            const std::vector<double>& setup_s, bool serving,
            double weak_scaling_eff) {
  for (const Window& w : windows) {
    r.attempted += w.ops;
    r.failed += w.failed;
    if (w.events_dropped > 0) {
      r.correct = false;
      r.notes.push_back("trace ring overflowed: " +
                        std::to_string(w.events_dropped) + " events dropped");
    }
  }
  const Window& w = windows.front();
  if (o.trace) {
    add_per_layer(r, w, windows.at(1), serving, weak_scaling_eff);
  } else {
    add_end_to_end(r, w, setup_s);
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "window: %lld ops (%zu samples), pace %.3f ms, latency p50 "
                "%.3f ms raw, %.3f ms at the nominal pace",
                static_cast<long long>(w.ops), w.latency_s.size(), w.pace_ms(),
                1e3 * percentile(w.latency_s, 50),
                1e3 * percentile(w.paced_latency_s(), 50));
  r.notes.push_back(line);
}

void write_trace(const Options& o, const Window& w) {
  if (o.trace_dir.empty() || w.trace_json.empty()) return;
  fs::create_directories(o.trace_dir);
  std::ofstream(fs::path(o.trace_dir) / (o.workload + ".trace.json"))
      << w.trace_json;
}

// --- training ---------------------------------------------------------------

struct TrainSpec {
  GptConfig model;
  EngineConfig config;     ///< the measured placement
  EngineConfig reference;  ///< the exactness reference placement
  int batch = 1;           ///< sequences per rank per step
};

EngineConfig train_config(EngineConfig c) {
  c.gpu_arena_bytes = kArenaBytes;
  c.loss_scale.init_scale = 1024.0f;
  return c;
}

GptConfig gpt(std::int64_t seq, std::int64_t hidden, std::int64_t layers) {
  GptConfig m;
  m.vocab = 256;
  m.seq = seq;
  m.hidden = hidden;
  m.layers = layers;
  m.heads = 4;
  return m;
}

/// Step `step`'s batch on `rank`: each sequence is a random token string,
/// and its targets are the same string shifted by one.
void make_batch(const TrainSpec& s, std::uint64_t seed, std::int64_t step,
                int rank, std::vector<std::int32_t>& tokens,
                std::vector<std::int32_t>& targets) {
  Rng rng(seed, (static_cast<std::uint64_t>(step) << 8) |
                    static_cast<std::uint64_t>(rank));
  const auto seq = static_cast<std::size_t>(s.model.seq);
  const auto vocab = static_cast<std::uint64_t>(s.model.vocab);
  tokens.resize(static_cast<std::size_t>(s.batch) * seq);
  targets.resize(tokens.size());
  for (int b = 0; b < s.batch; ++b) {
    auto next = static_cast<std::int32_t>(rng.next_below(vocab));
    for (std::size_t t = 0; t < seq; ++t) {
      const std::size_t i = static_cast<std::size_t>(b) * seq + t;
      tokens[i] = next;
      next = static_cast<std::int32_t>(rng.next_below(vocab));
      targets[i] = next;
    }
  }
}

struct TrainState {
  Gpt model;
  ZeroEngine engine;
  TrainState(const TrainSpec& s, const EngineConfig& config,
             Communicator& comm, AioEngine& aio, const fs::path& dir)
      : model(s.model), engine(model, comm, aio, [&] {
          EngineConfig c = config;
          c.nvme_dir = dir.string();
          return c;
        }()) {}
};

/// Warm-up on every rank of `st`'s world, then one measured window per
/// entry of `traced` (stage 3 engines only). Returns rank 0's warm-up
/// losses.
std::vector<float> train_windows(const TrainSpec& s, const Options& o,
                                 TrainState& st, Communicator& comm,
                                 AioEngine& aio, const std::vector<bool>& traced,
                                 double seconds, std::vector<Window>& windows) {
  const bool root = comm.rank() == 0;
  std::vector<float> losses;
  std::vector<std::int32_t> tokens, targets;
  std::int64_t step = 0;
  for (; step < kWarmupSteps; ++step) {
    make_batch(s, o.seed, step, comm.rank(), tokens, targets);
    const float loss = st.engine.train_step(tokens, targets).global_loss;
    if (root) losses.push_back(loss);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Probe probe{aio, st.engine.resources(), *st.engine.coordinator(),
                      &st.engine.optimizer()};
    Window& w = windows[i];
    measure(comm, probe, w, traced[i], seconds, [&](std::int64_t n) {
      make_batch(s, o.seed, step++, comm.rank(), tokens, targets);
      ZeroEngine::StepStats ss;
      const double dt = timed(
          "train_step", [&] { ss = st.engine.train_step(tokens, targets); });
      if (!root) return;
      ++w.ops;
      w.tokens += static_cast<double>(s.batch * s.model.seq * comm.size());
      w.add_latency(dt, n);
      w.fwd_s.push_back(ss.fwd_seconds);
      w.bwd_s.push_back(ss.bwd_seconds);
      w.opt_s.push_back(ss.opt_seconds);
    });
  }
  return losses;
}

/// Global losses of the first kWarmupSteps steps under `config`.
std::vector<float> first_losses(const TrainSpec& s, const EngineConfig& config,
                                const Options& o) {
  std::vector<float> losses;
  const fs::path dir = o.scratch_dir / "gate";
  std::vector<Window> none;
  AioEngine aio(aio_config());
  run_ranks(kWorld, WorldOptions{}, [&](Communicator& comm) {
    TrainState st(s, config, comm, aio, dir);
    std::vector<float> warm = train_windows(s, o, st, comm, aio, {}, 0, none);
    if (comm.rank() == 0) losses = std::move(warm);
  });
  fs::remove_all(dir);
  return losses;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Training tokens per second, at the nominal pace, of the same workload
/// on one rank.
double single_rank_tokens_per_s(const TrainSpec& s, const Options& o,
                                double seconds) {
  std::vector<Window> windows(1);
  const fs::path dir = o.scratch_dir / "world1";
  AioEngine aio(aio_config());
  run_ranks(1, WorldOptions{}, [&](Communicator& comm) {
    pin_to({0});
    TrainState st(s, s.config, comm, aio, dir);
    train_windows(s, o, st, comm, aio, {false}, seconds, windows);
  });
  fs::remove_all(dir);
  return windows[0].paced_tokens_per_s();
}

Result run_train(const TrainSpec& s, const Options& o) {
  Result r;
  std::vector<Window> windows(windows_of(o).size());
  std::vector<float> warm_losses;
  const std::vector<double> setup_s = setup_then_run<TrainState>(
      o,
      [&](Communicator& comm, AioEngine& aio, const fs::path& dir) {
        return std::make_unique<TrainState>(s, s.config, comm, aio, dir);
      },
      [&](TrainState& st, Communicator& comm, AioEngine& aio) {
        std::vector<float> losses = train_windows(
            s, o, st, comm, aio, windows_of(o), window_seconds(o), windows);
        if (comm.rank() == 0) warm_losses = std::move(losses);
      });
  write_trace(o, windows.back());

  // Correctness: the reference placement replays the warm-up steps and
  // must reproduce their global losses bit for bit.
  const std::vector<float> ref = first_losses(s, s.reference, o);
  if (!bit_identical(warm_losses, ref)) {
    r.correct = false;
    r.notes.push_back("gate: losses differ from the reference placement");
  } else {
    r.notes.push_back("gate: " + std::to_string(ref.size()) +
                      " step losses bit-identical to the reference placement");
  }
  const double weak =
      o.trace ? safe_div(windows.front().paced_tokens_per_s(),
                         kWorld * single_rank_tokens_per_s(s, o, o.seconds / 4))
              : 0.0;
  finish(r, o, windows, setup_s, /*serving=*/false, weak);
  return r;
}

Result train_nvme_b1(const Options& o) {
  TrainSpec s;
  s.model = gpt(/*seq=*/16, /*hidden=*/192, /*layers=*/2);
  s.config = train_config(preset_zero_infinity_nvme());
  s.reference = train_config(preset_zero3());
  s.batch = 1;
  return run_train(s, o);
}

Result train_gpu_b4(const Options& o) {
  TrainSpec s;
  s.model = gpt(/*seq=*/16, /*hidden=*/128, /*layers=*/2);
  s.config = train_config(preset_zero3());
  s.reference = train_config(preset_data_parallel());
  s.batch = 4;
  return run_train(s, o);
}

// --- serving ----------------------------------------------------------------

constexpr int kMaxBatch = 8;
constexpr std::int64_t kMaxNew = 16;
/// serve_nvme_open: requests per second, and the length of one open-loop
/// segment (one run() call); segments repeat until the window ends.
constexpr double kOpenRate = 7.0;
constexpr double kOpenSegmentS = 1.0;
/// serve_nvme_burst: requests per run() call, all due at once. Equal
/// prompts' worth of new tokens make a full batch of kMaxBatch finish
/// together, so latencies come in clusters of kMaxBatch; with three batches
/// per burst the p50 and p90 ranks fall inside a cluster, not between two.
constexpr int kBurst = 3 * kMaxBatch;
/// Requests checked against full-recompute decode after the window.
constexpr int kGateRequests = 4;
/// Requests whose token streams are hashed (same prompts on both serving
/// workloads, so the hashes must agree for one seed).
constexpr std::int64_t kHashRequests = 32;

GptConfig serve_model() {
  GptConfig m = gpt(/*seq=*/64, /*hidden=*/128, /*layers=*/4);
  m.checkpoint_activations = false;
  return m;
}

EngineConfig serve_config(EngineConfig c) {
  c.inference_only = true;
  c.gpu_arena_bytes = kArenaBytes;
  c.persistence_threshold_elems = 64;
  return c;
}

/// Request `id`'s prompt: 8 to 40 random tokens. Both serving workloads
/// number their requests from 0, so they serve the same prompts.
std::vector<std::int32_t> prompt(std::uint64_t seed, std::int64_t id) {
  Rng rng(seed, (1ull << 40) + static_cast<std::uint64_t>(id));
  std::vector<std::int32_t> p(8 + rng.next_below(33));
  for (auto& t : p) t = static_cast<std::int32_t>(rng.next_below(256));
  return p;
}

/// `n` requests starting at `first_id`. With `span_s` > 0 they arrive as a
/// Poisson process conditioned on exactly n arrivals in [0, span_s) (the
/// normalised exponential gaps), which keeps the offered rate exact while
/// the spacing stays random; otherwise all are due at once.
std::vector<ServeRequest> make_requests(std::uint64_t seed,
                                        std::int64_t first_id, std::int64_t n,
                                        double span_s) {
  std::vector<ServeRequest> reqs(static_cast<std::size_t>(n));
  std::vector<double> at(reqs.size() + 1, 0.0);
  Rng rng(seed, (2ull << 40) + static_cast<std::uint64_t>(first_id));
  for (std::size_t i = 1; i < at.size(); ++i) {
    at[i] = at[i - 1] - std::log(1.0 - rng.next_uniform());
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = first_id + static_cast<std::int64_t>(i);
    reqs[i].prompt = prompt(seed, reqs[i].id);
    reqs[i].arrival_seconds = span_s > 0 ? span_s * at[i] / at.back() : 0.0;
  }
  return reqs;
}

struct ServeState {
  Gpt model;
  StreamEngine engine;
  ServeEngine serve;
  ServeState(const EngineConfig& config, Communicator& comm, AioEngine& aio,
             const fs::path& dir)
      : model(serve_model()),
        engine(model, comm, aio,
               [&] {
                 EngineConfig c = config;
                 c.nvme_dir = dir.string();
                 return c;
               }()),
        serve(engine, model, [] {
          ServeConfig c;
          c.max_batch = kMaxBatch;
          c.max_new_tokens = kMaxNew;
          c.kv_tier = KvTier::kNvme;
          return c;
        }()) {}
};

using Served = std::map<std::int64_t, std::vector<std::int32_t>>;

/// FNV-1a over the token streams of requests [0, kHashRequests).
std::uint64_t token_hash(const Served& served, std::int64_t* covered) {
  std::uint64_t h = 1469598103934665603ull;
  *covered = 0;
  for (const auto& [id, tokens] : served) {
    if (id >= kHashRequests) break;
    ++*covered;
    for (std::int32_t t : tokens) {
      h = (h ^ static_cast<std::uint32_t>(t)) * 1099511628211ull;
    }
  }
  return h;
}

/// Greedy decode by full recompute on a fresh all-GPU engine: the control
/// that continuous batching, weight streaming and the NVMe KV tier must
/// reproduce token for token. One rank suffices (logits are bit-identical
/// across world sizes) and halves the time the gate takes.
bool serve_gate(const Options& o, const Served& served, std::string* note) {
  std::vector<std::int64_t> ids;
  for (const auto& [id, tokens] : served) ids.push_back(id);
  Rng pick(o.seed, 3ull << 40);
  std::vector<std::int64_t> chosen;
  for (int i = 0; i < kGateRequests && !ids.empty(); ++i) {
    const auto k = static_cast<std::size_t>(pick.next_below(ids.size()));
    chosen.push_back(ids[k]);
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
  }
  std::vector<std::vector<std::int32_t>> expect(chosen.size());
  const fs::path dir = o.scratch_dir / "gate";
  AioEngine aio(aio_config());
  run_ranks(1, WorldOptions{}, [&](Communicator& comm) {
    Gpt model(serve_model());
    EngineConfig c = serve_config(preset_zero3());
    c.nvme_dir = dir.string();
    StreamEngine engine(model, comm, aio, c);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      std::vector<std::int32_t> seq = prompt(o.seed, chosen[i]);
      std::vector<std::int32_t> out;
      for (std::int64_t k = 0; k < kMaxNew; ++k) {
        const Tensor logits = engine.forward_logits(seq);
        out.push_back(StreamEngine::argmax_row(
            logits, static_cast<std::int64_t>(seq.size()) - 1));
        seq.push_back(out.back());
      }
      if (comm.rank() == 0) expect[i] = std::move(out);
    }
  });
  fs::remove_all(dir);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (served.at(chosen[i]) != expect[i]) {
      *note = "gate: request " + std::to_string(chosen[i]) +
              " differs from full-recompute greedy decode";
      return false;
    }
  }
  *note = "gate: " + std::to_string(chosen.size()) +
          " requests match full-recompute greedy decode";
  return !chosen.empty();
}

Result run_serve(bool burst, const Options& o) {
  Result r;
  std::vector<Window> windows(windows_of(o).size());
  Served served;
  // Short smoke windows get segments no longer than themselves.
  const double segment_s = std::min(kOpenSegmentS, window_seconds(o));
  const std::int64_t per_op =
      burst ? kBurst
            : std::max<std::int64_t>(1, std::llround(kOpenRate * segment_s));

  const std::vector<double> setup_s = setup_then_run<ServeState>(
      o,
      [&](Communicator& comm, AioEngine& aio, const fs::path& dir) {
        return std::make_unique<ServeState>(
            serve_config(preset_zero_infinity_nvme()), comm, aio, dir);
      },
      [&](ServeState& st, Communicator& comm, AioEngine& aio) {
        const bool root = comm.rank() == 0;
        st.serve.run(make_requests(~o.seed, 0, kMaxBatch, 0.0));  // warm-up
        const Probe probe{aio, st.engine.resources(), st.engine.coordinator(),
                          nullptr};
        std::int64_t next_id = 0;
        for (std::size_t i = 0; i < windows.size(); ++i) {
          Window& w = windows[i];
          measure(comm, probe, w, windows_of(o)[i], window_seconds(o),
                  [&](std::int64_t n) {
                    const std::vector<ServeRequest> reqs = make_requests(
                        o.seed, next_id, per_op, burst ? 0.0 : segment_s);
                    next_id += per_op;
                    std::vector<ServeResult> results;
                    timed("serve_run", [&] { results = st.serve.run(reqs); });
                    if (!root) return;
                    w.ops += per_op;
                    for (ServeResult& res : results) {
                      const bool done = static_cast<std::int64_t>(
                                            res.tokens.size()) == kMaxNew;
                      w.failed += done ? 0 : 1;
                      w.tokens += static_cast<double>(res.tokens.size());
                      w.add_latency(res.report.total_seconds(), n);
                      w.requests.push_back(res.report);
                      served[res.id] = std::move(res.tokens);
                    }
                  });
        }
      });
  write_trace(o, windows.back());

  std::string note;
  if (!serve_gate(o, served, &note)) r.correct = false;
  r.notes.push_back(note);
  std::int64_t covered = 0;
  const std::uint64_t h = token_hash(served, &covered);
  char line[96];
  std::snprintf(line, sizeof(line), "tokens_hash=%016llx over=%lld",
                static_cast<unsigned long long>(h),
                static_cast<long long>(covered));
  r.notes.push_back(line);
  finish(r, o, windows, setup_s, /*serving=*/true, 0.0);
  return r;
}

Result serve_nvme_open(const Options& o) { return run_serve(false, o); }
Result serve_nvme_burst(const Options& o) { return run_serve(true, o); }

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train_nvme_b1", train_nvme_b1},
      {"train_gpu_b4", train_gpu_b4},
      {"serve_nvme_open", serve_nvme_open},
      {"serve_nvme_burst", serve_nvme_burst},
  };
  return all;
}

}  // namespace zb
