#include "comm/world.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <typeinfo>

#include "comm/clock_util.hpp"
#include "comm/inproc_transport.hpp"
#include "comm/proc_transport.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"
#include "testing/fault_injector.hpp"

namespace zi {

namespace {

using detail::CommClock;

// Process-lifetime abort counter (survives world teardown across elastic
// restarts — exactly what the per-step metrics line reports).
std::atomic<std::uint64_t> g_comm_aborts{0};

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception type";
  }
}

bool is_comm_error(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const CommError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

const char* world_fail_kind_name(WorldFailKind kind) noexcept {
  switch (kind) {
    case WorldFailKind::kNone:
      return "none";
    case WorldFailKind::kException:
      return "exception";
    case WorldFailKind::kTimeout:
      return "timeout";
    case WorldFailKind::kStall:
      return "stall";
    case WorldFailKind::kStraggler:
      return "straggler";
  }
  return "?";
}

std::uint64_t comm_abort_count() noexcept {
  return g_comm_aborts.load(std::memory_order_relaxed);
}

WorldOptions WorldOptions::from_env() {
  WorldOptions o;
  o.timeout_ms = getenv_f64("ZI_COMM_TIMEOUT_MS", o.timeout_ms);
  o.p2p_capacity_bytes =
      static_cast<std::size_t>(getenv_u64("ZI_P2P_CAP_BYTES", o.p2p_capacity_bytes));
  o.p2p_capacity_messages =
      static_cast<std::size_t>(getenv_u64("ZI_P2P_CAP_MSGS", o.p2p_capacity_messages));
  o.proc_shm_mb =
      static_cast<std::size_t>(getenv_u64("ZI_PROC_SHM_MB", o.proc_shm_mb));
  o.straggler_factor = getenv_f64("ZI_STRAGGLER_FACTOR", o.straggler_factor);
  o.straggler_steps = static_cast<int>(
      getenv_u64("ZI_STRAGGLER_STEPS",
                 static_cast<std::uint64_t>(o.straggler_steps)));
  if (const char* e = std::getenv("ZI_TRANSPORT"); e != nullptr && *e) {
    const std::string v(e);
    if (v == "inproc") {
      o.transport = TransportKind::kInproc;
    } else if (v == "proc") {
      o.transport = TransportKind::kProc;
    } else {
      throw Error("ZI_TRANSPORT='" + v +
                  "' is not a valid transport (expected 'inproc' or 'proc')");
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// WorldHealth

WorldHealth::WorldHealth(int num_ranks)
    : ranks_(static_cast<std::size_t>(num_ranks)) {
  const std::int64_t t0 = detail::comm_now_ns();
  for (auto& r : ranks_) r.beat_ns.store(t0, std::memory_order_relaxed);
}

namespace {

/// Monotonic max on an atomic (fetch_max is C++26; a CAS loop is portable).
void fetch_max_i64(std::atomic<std::int64_t>& a, std::int64_t v) noexcept {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void WorldHealth::beat(int rank) noexcept {
  PerRank& pr = ranks_[static_cast<std::size_t>(rank)];
  const std::int64_t now = detail::comm_now_ns();
  const std::int64_t prev = pr.beat_ns.exchange(now, std::memory_order_relaxed);
  if (now > prev) fetch_max_i64(pr.max_gap_ns, now - prev);
}

std::int64_t WorldHealth::beat_ns(int rank) const noexcept {
  return ranks_[static_cast<std::size_t>(rank)].beat_ns.load(
      std::memory_order_relaxed);
}

void WorldHealth::mirror_beat_ns(int rank, std::int64_t ns) noexcept {
  PerRank& pr = ranks_[static_cast<std::size_t>(rank)];
  const std::int64_t prev = pr.beat_ns.exchange(ns, std::memory_order_relaxed);
  // Mirrored timestamps only move the watermark when the beat actually
  // advanced (the proc backend re-mirrors unchanged beats every poll).
  if (ns > prev) fetch_max_i64(pr.max_gap_ns, ns - prev);
}

double WorldHealth::max_heartbeat_gap_ms(int rank) const noexcept {
  return static_cast<double>(ranks_[static_cast<std::size_t>(rank)]
                                 .max_gap_ns.load(std::memory_order_relaxed)) /
         1e6;
}

void WorldHealth::record_straggler(int rank) noexcept {
  int expected = -1;  // first verdict wins, mirroring record_failure
  straggler_.compare_exchange_strong(expected, rank,
                                     std::memory_order_acq_rel);
}

void WorldHealth::note_step_ewma(int rank, double seconds) noexcept {
  ranks_[static_cast<std::size_t>(rank)].ewma_bits.store(
      std::bit_cast<std::int64_t>(seconds), std::memory_order_relaxed);
}

double WorldHealth::step_ewma_s(int rank) const noexcept {
  return std::bit_cast<double>(ranks_[static_cast<std::size_t>(rank)]
                                   .ewma_bits.load(std::memory_order_relaxed));
}

double WorldHealth::heartbeat_age_ms(int rank) const noexcept {
  const std::int64_t last = ranks_[static_cast<std::size_t>(rank)]
                                .beat_ns.load(std::memory_order_relaxed);
  return static_cast<double>(detail::comm_now_ns() - last) / 1e6;
}

double WorldHealth::max_heartbeat_age_ms() const noexcept {
  double worst = 0.0;
  for (int r = 0; r < num_ranks(); ++r) {
    worst = std::max(worst, heartbeat_age_ms(r));
  }
  return worst;
}

WorldHealth::RankStatus WorldHealth::status(int rank) const noexcept {
  return static_cast<RankStatus>(ranks_[static_cast<std::size_t>(rank)]
                                     .status.load(std::memory_order_acquire));
}

void WorldHealth::mark_done(int rank) noexcept {
  ranks_[static_cast<std::size_t>(rank)].status.store(
      static_cast<int>(RankStatus::kDone), std::memory_order_release);
}

void WorldHealth::mark_failed(int rank) noexcept {
  ranks_[static_cast<std::size_t>(rank)].status.store(
      static_cast<int>(RankStatus::kFailed), std::memory_order_release);
}

void WorldHealth::record_failure(int rank, WorldFailKind kind,
                                 const std::string& what) {
  LockGuard lock(mutex_);
  if (has_failure_) return;  // first failure wins
  has_failure_ = true;
  culprit_ = rank;
  kind_ = kind;
  what_ = what;
}

int WorldHealth::culprit_rank() const {
  LockGuard lock(mutex_);
  return culprit_;
}

WorldFailKind WorldHealth::fail_kind() const {
  LockGuard lock(mutex_);
  return kind_;
}

std::string WorldHealth::failure_what() const {
  LockGuard lock(mutex_);
  return what_;
}

// ---------------------------------------------------------------------------
// StragglerDetector

StragglerDetector::StragglerDetector(int world, double factor, int steps)
    : factor_(factor),
      steps_(steps),
      ewma_(static_cast<std::size_t>(world), 0.0),
      streak_(static_cast<std::size_t>(world), 0) {
  ZI_CHECK(world > 0);
}

int StragglerDetector::observe(std::span<const double> step_seconds) {
  ZI_CHECK_MSG(step_seconds.size() == ewma_.size(),
               "StragglerDetector: expected " << ewma_.size()
                                              << " per-rank step times, got "
                                              << step_seconds.size());
  if (verdict_ >= 0) return verdict_;  // latched
  const std::size_t n = ewma_.size();
  for (std::size_t r = 0; r < n; ++r) {
    ewma_[r] = seeded_ ? 0.5 * ewma_[r] + 0.5 * step_seconds[r]
                       : step_seconds[r];
  }
  seeded_ = true;
  if (factor_ <= 0.0 || steps_ <= 0 || n < 2) return -1;
  // Lower median (index (n-1)/2): deterministic, and in a small world it
  // keeps a single straggler from dragging the threshold up toward itself.
  std::vector<double> sorted(ewma_);
  const std::size_t mid = (n - 1) / 2;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  const double median = sorted[mid];
  for (std::size_t r = 0; r < n; ++r) {
    if (median > 0.0 && ewma_[r] > factor_ * median) {
      if (++streak_[r] >= steps_ && verdict_ < 0) {
        verdict_ = static_cast<int>(r);  // lowest qualifying rank wins
      }
    } else {
      streak_[r] = 0;
    }
  }
  return verdict_;
}

// ---------------------------------------------------------------------------
// Communicator failure plumbing

namespace detail {

Communicator make_communicator(int rank, int global_rank,
                               std::shared_ptr<Transport> transport) {
  return Communicator(rank, global_rank, std::move(transport));
}

}  // namespace detail

void Communicator::throw_aborted(const char* op, std::uint64_t epoch) const {
  g_comm_aborts.fetch_add(1, std::memory_order_relaxed);
  ZI_TRACE_INSTANT("comm", "abort");
  WorldHealth& h = transport_->health();
  const int culprit = h.culprit_rank();
  std::ostringstream os;
  os << "comm op '" << op << "' on rank " << global_rank_
     << " aborted at epoch " << epoch << ": world poisoned";
  if (culprit >= 0) {
    os << " (" << world_fail_kind_name(h.fail_kind()) << " on rank " << culprit
       << ": " << h.failure_what() << ")";
  }
  throw CommAbortedError(os.str(), op, culprit, epoch);
}

void Communicator::enter_collective(const char* op) {
  auto& t = *transport_;
  t.beat();
  if (t.poisoned()) throw_aborted(op, t.epoch());
  if (FaultInjector::armed()) {
    const FaultDecision crash =
        fault_check(FaultSite::kRankCrash, global_rank_);
    if (crash.error) {
      throw Error("fault injection: rank_crash on rank " +
                  std::to_string(global_rank_) + " entering '" + op + "'");
    }
    const FaultDecision pkill =
        fault_check(FaultSite::kProcKill, global_rank_);
    if (pkill.error) {
      if (t.out_of_process()) {
        // A real crash: SIGKILL this rank's own process mid-collective. No
        // unwinding, no poison, no goodbye frame — peers and the supervisor
        // must detect the death (socket EOF / heartbeat loss), which is
        // exactly what the elastic kill -9 test exercises.
        ::kill(::getpid(), SIGKILL);
      }
      // In-process worlds cannot SIGKILL one rank without killing them all;
      // degrade to a thrown crash so the same spec stays usable everywhere.
      throw Error("fault injection: proc_kill on rank " +
                  std::to_string(global_rank_) + " entering '" + op +
                  "' (in-process world: degraded to a thrown crash)");
    }
    const FaultDecision pstall =
        fault_check(FaultSite::kProcStall, global_rank_);
    if (pstall.delay_us > 0) {
      if (t.out_of_process()) {
        // A real OS-level freeze: SIGSTOP this rank's process for delay_us,
        // with a forked helper delivering the wakeup SIGCONT (a stopped
        // process cannot resume itself). Every thread of the rank — comm,
        // AIO, heartbeat — halts, so peers see a silent heartbeat gap
        // exactly as if the node were preempted or oversubscribed.
        const pid_t self = ::getpid();
        const pid_t helper = ::fork();
        if (helper == 0) {
          struct timespec ts;
          ts.tv_sec = static_cast<time_t>(pstall.delay_us / 1000000);
          ts.tv_nsec = static_cast<long>((pstall.delay_us % 1000000) * 1000);
          ::nanosleep(&ts, nullptr);
          ::kill(self, SIGCONT);
          ::_exit(0);
        }
        if (helper > 0) {
          ::raise(SIGSTOP);
          int status = 0;
          ::waitpid(helper, &status, 0);
        } else {
          injected_stall(op, pstall.delay_us);  // fork failed: cooperative
        }
      } else {
        // In-process world: one rank thread cannot be SIGSTOPped without
        // freezing its peers too; degrade to the cooperative rank_stall
        // freeze so the same fault spec stays usable on both backends.
        injected_stall(op, pstall.delay_us);
      }
    }
    const FaultDecision stall =
        fault_check(FaultSite::kRankStall, global_rank_);
    if (stall.error || stall.delay_us > 0) injected_stall(op, stall.delay_us);
    const FaultDecision delay =
        fault_check(FaultSite::kCollectiveDelay, global_rank_);
    if (delay.delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay.delay_us));
    }
  }
}

void Communicator::injected_stall(const char* op, std::uint64_t cap_us) {
  // A bounded stall (delay_us=... rule) models a slow-but-alive rank: it
  // freezes without beating, then resumes normally. An unbounded stall
  // (error-kind rule) freezes until a detector — peer timeout or watchdog —
  // poisons the world; the 120 s cap keeps an undetected stall from hanging
  // an entire test binary.
  const CommClock::time_point deadline =
      CommClock::now() + (cap_us > 0 ? std::chrono::microseconds(cap_us)
                                     : std::chrono::microseconds(
                                           std::uint64_t{120} * 1000 * 1000));
  const bool unbounded = cap_us == 0;
  while (CommClock::now() < deadline) {
    if (unbounded && transport_->poisoned()) {
      throw_aborted(op, transport_->epoch());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Communicator::sync_point(const char* op) {
  auto& t = *transport_;
  int suspect = -1;
  std::uint64_t epoch = 0;
  bool last = false;
  // comm/wait splits a collective's comm time into waiting (this span) and
  // copying or reducing (the rest of the collective's span); "last" marks
  // the arrival that released the round, which waited for no one.
  const bool traced = Tracer::enabled();
  const std::uint64_t trace_t0 = traced ? Tracer::now_ns() : 0;
  const CommClock::time_point wait_t0 = CommClock::now();
  const detail::WaitOutcome res = t.sync(&suspect, &epoch, &last);
  sync_wait_seconds_ +=
      std::chrono::duration<double>(CommClock::now() - wait_t0).count();
  if (traced) {
    Tracer::instance().record_complete("comm", "wait", trace_t0,
                                       Tracer::now_ns() - trace_t0,
                                       last ? "\"last\":1" : "");
  }
  if (res == detail::WaitOutcome::kOk) return;
  if (res == detail::WaitOutcome::kTimeout) {
    std::ostringstream os;
    os << "comm op '" << op << "' on rank " << global_rank_
       << " timed out after " << t.options().timeout_ms << " ms at epoch "
       << epoch << " waiting for rank " << suspect << " (heartbeat age "
       << (suspect >= 0 ? t.health().heartbeat_age_ms(suspect) : -1.0)
       << " ms)";
    t.fail_world(suspect, WorldFailKind::kTimeout, os.str());
    g_comm_aborts.fetch_add(1, std::memory_order_relaxed);
    ZI_TRACE_INSTANT("comm", "abort");
    throw CommTimeoutError(os.str(), op, suspect, epoch,
                           t.options().timeout_ms);
  }
  throw_aborted(op, epoch);
}

void Communicator::abort_world(const std::string& reason) {
  transport_->health().mark_failed(global_rank_);
  transport_->fail_world(global_rank_, WorldFailKind::kException,
                         "abort_world: " + reason);
  ZI_TRACE_INSTANT("comm", "abort");
}

// ---------------------------------------------------------------------------
// Point-to-point

void Communicator::send_bytes(int to, detail::P2pMessage msg) {
  auto& t = *transport_;
  ZI_CHECK(to >= 0 && to < t.size() && to != rank_);
  t.beat();
  const std::size_t bytes = msg.payload.size();
  const detail::WaitOutcome res = t.p2p_send(to, std::move(msg));
  if (res == detail::WaitOutcome::kOk) {
    t.traffic().p2p_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return;
  }
  if (res == detail::WaitOutcome::kTimeout) {
    const int receiver = t.global_rank_of(to);
    std::ostringstream os;
    os << "p2p send " << global_rank_ << "->" << receiver
       << " blocked past channel cap for " << t.options().timeout_ms
       << " ms (receiver not draining)";
    t.fail_world(receiver, WorldFailKind::kTimeout, os.str());
    g_comm_aborts.fetch_add(1, std::memory_order_relaxed);
    ZI_TRACE_INSTANT("comm", "abort");
    throw CommTimeoutError(os.str(), "send", receiver, t.epoch(),
                           t.options().timeout_ms);
  }
  throw_aborted("send", t.epoch());
}

void Communicator::recv_bytes(std::span<std::byte> data, int from, int tag) {
  auto& t = *transport_;
  ZI_CHECK(from >= 0 && from < t.size() && from != rank_);
  t.beat();
  detail::P2pMessage msg;
  const detail::WaitOutcome res = t.p2p_recv(from, &msg);
  if (res == detail::WaitOutcome::kTimeout) {
    const int sender = t.global_rank_of(from);
    std::ostringstream os;
    os << "p2p recv on rank " << global_rank_ << " from rank " << sender
       << " (tag " << tag << ") timed out after " << t.options().timeout_ms
       << " ms";
    t.fail_world(sender, WorldFailKind::kTimeout, os.str());
    g_comm_aborts.fetch_add(1, std::memory_order_relaxed);
    ZI_TRACE_INSTANT("comm", "abort");
    throw CommTimeoutError(os.str(), "recv", sender, t.epoch(),
                           t.options().timeout_ms);
  }
  if (res == detail::WaitOutcome::kPoisoned) {
    throw_aborted("recv", t.epoch());
  }
  ZI_CHECK_MSG(msg.tag == tag, "p2p tag mismatch: expected "
                                   << tag << ", got " << msg.tag
                                   << " (per-channel FIFO ordering)");
  ZI_CHECK_MSG(msg.payload.size() == data.size(),
               "p2p size mismatch: sent " << msg.payload.size()
                                          << " bytes, receiving "
                                          << data.size());
  std::memcpy(data.data(), msg.payload.data(), msg.payload.size());
}

// ---------------------------------------------------------------------------
// Collectives (non-template)

void Communicator::barrier() {
  ZI_TRACE_SPAN("comm", "barrier");
  enter_collective("barrier");
  transport_->traffic().barriers.fetch_add(1, std::memory_order_relaxed);
  sync_point("barrier");
}

Communicator Communicator::split(int color) {
  auto& t = *transport_;
  enter_collective("split");
  // Publish every rank's color through the collective plane.
  thread_local int slot;
  slot = color;
  t.publish(&slot, sizeof(int), 1);
  sync_point("split");
  std::vector<int> members;
  for (int r = 0; r < t.size(); ++r) {
    if (*static_cast<const int*>(t.peer_data(r)) == color) {
      members.push_back(r);
    }
  }
  int sub_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == rank_) sub_rank = static_cast<int>(i);
  }
  ZI_CHECK(sub_rank >= 0);

  std::shared_ptr<detail::Transport> sub =
      t.make_subgroup(split_calls_, color, members, sub_rank);
  ++split_calls_;
  sync_point("split");  // everyone joined before first subgroup use
  const int sub_global = sub->global_rank_of(sub_rank);
  return Communicator(sub_rank, sub_global, std::move(sub));
}

double Communicator::allreduce_sum_scalar(double value) {
  auto& t = *transport_;
  enter_collective("allreduce_sum_scalar");
  thread_local double slot;
  slot = value;
  t.publish(&slot, sizeof(double), 1);
  sync_point("allreduce_sum_scalar");
  double acc = 0.0;
  for (int r = 0; r < t.size(); ++r) {
    acc += *static_cast<const double*>(t.peer_data(r));
  }
  sync_point("allreduce_sum_scalar");
  return acc;
}

bool Communicator::allreduce_or(bool value) {
  return allreduce_max(value ? 1.0 : 0.0) > 0.5;
}

double Communicator::allreduce_max(double value) {
  auto& t = *transport_;
  enter_collective("allreduce_max");
  // Reuse the publication protocol with a per-rank double.
  thread_local double slot;
  slot = value;
  t.publish(&slot, sizeof(double), 1);
  sync_point("allreduce_max");
  double best = value;
  for (int r = 0; r < t.size(); ++r) {
    best = std::max(best, *static_cast<const double*>(t.peer_data(r)));
  }
  sync_point("allreduce_max");
  return best;
}

// ---------------------------------------------------------------------------
// World driver (inproc: one thread per rank)

namespace {

/// Completion bookkeeping for run_world's grace-period join.
struct JoinLatch {
  Mutex mutex;
  CondVar cv;
  int remaining ZI_GUARDED_BY(mutex) = 0;
  std::vector<bool> done ZI_GUARDED_BY(mutex);
};

WorldReport run_world_inproc(int num_ranks, const WorldOptions& options,
                             const std::function<void(Communicator&)>& fn) {
  auto shared = std::make_shared<detail::WorldShared>(num_ranks, options);
  auto latch = std::make_shared<JoinLatch>();
  {
    LockGuard lock(latch->mutex);
    latch->remaining = num_ranks;
    latch->done.assign(static_cast<std::size_t>(num_ranks), false);
  }
  auto errors = std::make_shared<std::vector<std::exception_ptr>>(
      static_cast<std::size_t>(num_ranks));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    // Everything captured by value (shared_ptr copies + a per-thread copy
    // of fn): a thread detached after join_grace_ms must not dangle on the
    // caller's stack frame.
    threads.emplace_back([shared, latch, errors, fn, r] {
      Tracer::set_thread_name("rank" + std::to_string(r));
      shared->health->beat(r);
      Communicator comm = detail::make_communicator(
          r, r, std::make_shared<detail::InprocTransport>(shared, r));
      try {
        fn(comm);
        shared->health->mark_done(r);
      } catch (const CommError&) {
        // Victim of an abort that is already recorded (or, pathologically,
        // an unattributed one) — never overwrite the first-failure record.
        (*errors)[static_cast<std::size_t>(r)] = std::current_exception();
        shared->health->mark_failed(r);
      } catch (...) {
        (*errors)[static_cast<std::size_t>(r)] = std::current_exception();
        shared->health->record_failure(r, WorldFailKind::kException,
                                       describe_current_exception());
        shared->health->mark_failed(r);
        // The headline fix: a dying rank unblocks its peers instead of
        // leaving them in arrive_and_wait forever.
        shared->poison_world();
      }
      {
        LockGuard lock(latch->mutex);
        --latch->remaining;
        latch->done[static_cast<std::size_t>(r)] = true;
      }
      latch->cv.notify_all();
    });
  }

  // World watchdog: declares a running rank failed when its heartbeat age
  // crosses the stall threshold, then poisons the world so waiters unblock.
  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog;
  const bool watch =
      options.watchdog_interval_ms > 0.0 && options.stall_threshold_ms > 0.0;
  if (watch) {
    watchdog = std::thread([shared, &stop_watchdog, options] {
      Tracer::set_thread_name("world_watchdog");
      const CommClock::duration interval =
          detail::comm_ms_to_duration(options.watchdog_interval_ms);
      CommClock::time_point next_check = CommClock::now() + interval;
      while (!stop_watchdog.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (shared->health->poisoned()) return;
        if (CommClock::now() < next_check) continue;
        next_check = CommClock::now() + interval;
        for (int r = 0; r < shared->num_ranks; ++r) {
          if (shared->health->status(r) != WorldHealth::RankStatus::kRunning) {
            continue;
          }
          const double age = shared->health->heartbeat_age_ms(r);
          if (age <= options.stall_threshold_ms) continue;
          std::ostringstream os;
          os << "watchdog: rank " << r << " heartbeat stalled (age " << age
             << " ms > threshold " << options.stall_threshold_ms << " ms)";
          ZI_LOG_WARN << os.str();
          shared->health->record_failure(r, WorldFailKind::kStall, os.str());
          shared->poison_world();
          ZI_TRACE_INSTANT("comm", "abort");
          return;
        }
      }
    });
  }

  std::vector<int> zombie_ranks;
  if (!options.deadlines_enabled()) {
    // Legacy semantics: plain join. Without deadlines no rank can time out,
    // so nothing here changes behavior for existing callers.
    for (std::thread& t : threads) t.join();
  } else {
    // Wait for completion; after a poison, give unblocked ranks
    // join_grace_ms to unwind, then detach the genuinely wedged ones
    // (threads cannot be cancelled).
    std::vector<bool> done_snapshot;
    {
      UniqueLock lock(latch->mutex);
      CommClock::time_point poison_deadline = CommClock::time_point::max();
      while (latch->remaining > 0) {
        if (shared->health->poisoned() &&
            poison_deadline == CommClock::time_point::max()) {
          poison_deadline =
              CommClock::now() +
              detail::comm_ms_to_duration(std::max(0.0, options.join_grace_ms));
        }
        if (CommClock::now() >= poison_deadline) break;
        latch->cv.wait_for(lock, detail::kWaitSlice);
      }
      done_snapshot = latch->done;
    }
    for (int r = 0; r < num_ranks; ++r) {
      if (done_snapshot[static_cast<std::size_t>(r)]) {
        threads[static_cast<std::size_t>(r)].join();
      } else {
        threads[static_cast<std::size_t>(r)].detach();
        zombie_ranks.push_back(r);
        ZI_LOG_WARN << "run_world: rank " << r
                    << " still blocked past join grace; detached";
      }
    }
  }
  stop_watchdog.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  WorldReport rep;
  rep.world = num_ranks;
  for (int r = 0; r < num_ranks; ++r) {
    const std::exception_ptr& e = (*errors)[static_cast<std::size_t>(r)];
    if (!e) continue;
    rep.failed_ranks.push_back(r);
    rep.exceptions.push_back(e);
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      rep.errors.emplace_back(ex.what());
    } catch (...) {
      rep.errors.emplace_back("unknown exception type");
    }
    if (!is_comm_error(e)) rep.primary_ranks.push_back(r);
  }
  for (int r : zombie_ranks) {
    rep.failed_ranks.push_back(r);
    rep.exceptions.push_back(nullptr);
    rep.errors.emplace_back("rank did not return after world abort (detached)");
  }
  rep.detached = static_cast<int>(zombie_ranks.size());
  rep.kind = shared->health->fail_kind();
  rep.culprit_rank = shared->health->culprit_rank();
  rep.culprit_what = shared->health->failure_what();
  if (rep.culprit_rank < 0 && !rep.primary_ranks.empty()) {
    rep.culprit_rank = rep.primary_ranks.front();
  }
  rep.rank_payloads = shared->take_results();
  rep.ok = rep.failed_ranks.empty();
  return rep;
}

}  // namespace

WorldReport run_world(int num_ranks, const WorldOptions& options,
                      const std::function<void(Communicator&)>& fn) {
  ZI_CHECK(num_ranks > 0);
  if (options.transport == TransportKind::kProc) {
    return detail::run_world_proc(num_ranks, options, fn);
  }
  return run_world_inproc(num_ranks, options, fn);
}

void run_ranks(int num_ranks, const std::function<void(Communicator&)>& fn) {
  run_ranks(num_ranks, WorldOptions::from_env(), fn);
}

namespace {

/// True when every exception in `eps` is a std::exception of one dynamic
/// type — the signature of a deterministic lockstep failure (e.g. every
/// rank OOMs on the same allocation).
bool same_exception_type(const std::vector<std::exception_ptr>& eps) {
  const std::type_info* first = nullptr;
  for (const std::exception_ptr& e : eps) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      if (first == nullptr) {
        first = &typeid(ex);
      } else if (typeid(ex) != *first) {
        return false;
      }
    } catch (...) {
      return false;  // not introspectable — treat as heterogeneous
    }
  }
  return first != nullptr;
}

}  // namespace

void run_ranks(int num_ranks, const WorldOptions& options,
               const std::function<void(Communicator&)>& fn) {
  const WorldReport rep = run_world(num_ranks, options, fn);
  if (rep.ok) return;
  // Rethrow the original exception so typed catch sites keep working when
  // the failure has a single real cause: either exactly one rank failed for
  // a "real" (non-communication) reason and its peers are collateral comm
  // aborts, or *every* failed rank is a primary throwing the same exception
  // type — the deterministic-lockstep case (e.g. all ranks OOM on the same
  // allocation), where the first-failing rank's exception speaks for all.
  const bool lockstep =
      rep.primary_ranks.size() > 1 && rep.detached == 0 &&
      rep.primary_ranks.size() == rep.failed_ranks.size() &&
      same_exception_type(rep.exceptions);
  if (rep.primary_ranks.size() == 1 || lockstep) {
    const int primary =
        lockstep && rep.culprit_rank >= 0 &&
                std::find(rep.primary_ranks.begin(), rep.primary_ranks.end(),
                          rep.culprit_rank) != rep.primary_ranks.end()
            ? rep.culprit_rank
            : rep.primary_ranks.front();
    if (rep.failed_ranks.size() > 1) {
      ZI_LOG_WARN << "world aborted: rank " << primary << " failed"
                  << (lockstep ? " (lockstep with all peers)" : "") << "; "
                  << rep.failed_ranks.size() - 1
                  << " peer rank(s) also unwound";
    }
    for (std::size_t i = 0; i < rep.failed_ranks.size(); ++i) {
      if (rep.failed_ranks[i] == primary) {
        std::rethrow_exception(rep.exceptions[i]);
      }
    }
  }
  // Heterogeneous multi-rank failures, pure timeout/stall aborts, or
  // zombies: aggregate everything.
  std::ostringstream os;
  os << "world of " << rep.world << " ranks failed";
  if (rep.culprit_rank >= 0) {
    os << "; first failure (" << world_fail_kind_name(rep.kind) << ") on rank "
       << rep.culprit_rank;
  }
  for (std::size_t i = 0; i < rep.failed_ranks.size(); ++i) {
    os << "\n  rank " << rep.failed_ranks[i] << ": " << rep.errors[i];
  }
  throw WorldError(os.str(), rep.culprit_rank, rep.failed_ranks);
}

}  // namespace zi
