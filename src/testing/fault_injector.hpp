// FaultInjector — deterministic, seeded fault injection for the offload
// pipeline (the testing backbone of the "handles failure" story).
//
// ZeRO-Infinity's viability rests on the NVMe/CPU/GPU data path surviving
// real-world storage and memory failures: DeepNVMe reads that return EIO or
// short counts, latency spikes on a congested SSD, GPU allocations that OOM
// under fragmentation, pinned staging buffers that are all leased out. This
// registry lets tests (and ZI_FAULTS-driven runs) schedule those failures
// *deterministically* at named injection sites:
//
//   aio_read / aio_write   AioEngine sub-request syscalls (EIO, short
//                          transfer, delayed completion)
//   nvme_alloc             NvmeStore::allocate (swap-space exhaustion)
//   arena_alloc            DeviceArena::allocate, kReal arenas only
//                          (simulated GPU OOM; virtual arenas are the
//                          capacity-experiment substrate and stay exact)
//   pinned_acquire         PinnedBufferPool acquisition (stall/exhaustion)
//   rank_crash             Communicator collective entry: the rank throws
//                          (error kind) — the in-process analog of a worker
//                          process dying mid-run
//   rank_stall             Communicator collective entry: the rank freezes
//                          without heartbeating — unbounded (error kind,
//                          until the world is poisoned by a detector) or
//                          bounded "slow rank" (delay kind + delay_us)
//   collective_delay       Communicator collective entry: plain latency
//                          (delay kind) without stopping heartbeats
//   proc_kill              Communicator collective entry: SIGKILL the rank's
//                          own process (error kind; proc transport only — an
//                          in-process world degrades it to a thrown crash)
//   proc_stall             Communicator collective entry: SIGSTOP the rank's
//                          own process for delay_us, then SIGCONT (delay
//                          kind; proc transport only — an in-process world
//                          degrades it to a bounded rank_stall freeze)
//
// Determinism: every site keeps an operation ordinal, and a rule's fire
// decision for ordinal i is a pure function of (seed, site, rule index, i)
// via a splitmix64 hash — no shared RNG stream, no cross-site coupling.
// Replaying the same seed over the same per-site operation sequence
// reproduces the exact failure schedule; under concurrent submission the
// ordinal assignment follows scheduling order, but the per-ordinal decision
// sequence is still fixed, which is what the masking/retry invariants need.
//
// Zero overhead when disabled: call sites guard with a single relaxed
// atomic load (fault_check() below — the same pattern as obs/trace.hpp), and
// the singleton is never touched.
//
// Enabling: export ZI_FAULTS="seed=42;aio_read:error,p=0.05;..." before
// process start, or configure()/add_rule() programmatically.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace zi {

/// Injection points wired into the library. Keep fault_site_name() and
/// fault_site_from_name() in sync when adding entries.
enum class FaultSite : int {
  kAioRead = 0,
  kAioWrite,
  kNvmeAllocate,
  kArenaAllocate,
  kPinnedAcquire,
  kRankCrash,
  kRankStall,
  kCollectiveDelay,
  kProcKill,
  kProcStall,
};
inline constexpr int kNumFaultSites = 10;

const char* fault_site_name(FaultSite site);
/// Parses "aio_read" etc.; throws zi::Error on unknown names.
FaultSite fault_site_from_name(const std::string& name);

/// What an injected fault does at its site. Sites interpret the kinds:
/// alloc sites treat kError as OOM, I/O sites as EIO; kShort only applies
/// to I/O sites (partial transfer); kDelay sleeps before the operation.
enum class FaultKind : int { kError = 0, kShort, kDelay };

struct FaultRule {
  FaultSite site = FaultSite::kAioRead;
  FaultKind kind = FaultKind::kError;
  /// Per-operation Bernoulli probability (hash-derived, not a shared RNG).
  /// Ignored when `after` >= 0.
  double probability = 0.0;
  /// When >= 0: fire deterministically on every operation whose per-site
  /// ordinal is >= `after` (bounded by max_fires). -1 = probability mode.
  std::int64_t after = -1;
  /// Stop firing after this many fires; -1 = unlimited.
  std::int64_t max_fires = -1;
  /// Injected latency for kDelay rules.
  std::uint64_t delay_us = 0;
  /// When >= 0: the rule only fires for this actor (comm sites pass the
  /// global rank), and in `after`/ordinal terms the rule counts *that
  /// actor's* operations rather than the site total — "kill rank 2 at its
  /// 40th collective" stays exact however the ranks interleave.
  int actor = -1;
};

/// The combined verdict for one operation (multiple rules may stack: an
/// error and a latency spike can fire together).
struct FaultDecision {
  bool error = false;
  bool short_op = false;
  std::uint64_t delay_us = 0;
  explicit operator bool() const noexcept {
    return error || short_op || delay_us != 0;
  }
};

namespace detail {
// The only thing the disabled fast path touches: one relaxed atomic load
// per injection site, no singleton access, no allocation.
extern std::atomic<bool> g_faults_armed;
inline bool faults_armed() noexcept {
  return g_faults_armed.load(std::memory_order_relaxed);
}
}  // namespace detail

class FaultInjector {
 public:
  struct SiteStats {
    std::uint64_t ops = 0;     ///< operations evaluated at this site
    std::uint64_t errors = 0;  ///< kError fires
    std::uint64_t shorts = 0;  ///< kShort fires
    std::uint64_t delays = 0;  ///< kDelay fires
  };

  static FaultInjector& instance();

  /// True when any rule is registered and injection is armed. Inline
  /// relaxed load — this is the only cost when faults are off.
  static bool armed() noexcept { return detail::faults_armed(); }

  /// Parse and apply a ZI_FAULTS-style spec:
  ///   "seed=42;aio_read:error,p=0.05;aio_write:short,p=0.1,count=3;
  ///    nvme_alloc:error,after=10;pinned_acquire:delay,p=1,delay_us=200"
  /// Each ';'-separated clause is either "seed=N" or
  /// "<site>:<kind>[,p=<float>][,after=<n>][,count=<n>][,delay_us=<n>]
  ///  [,rank=<r>]".
  /// Arms the injector when at least one rule results. Throws zi::Error on
  /// malformed specs.
  void configure(const std::string& spec);

  void add_rule(const FaultRule& rule);
  void set_seed(std::uint64_t seed);
  std::uint64_t seed() const;

  void arm();
  void disarm();
  /// Disarm and forget all rules, counters, and stats (tests call this
  /// between cases; the injector is a process-wide singleton).
  void clear();

  /// Evaluate all rules for one operation at `site`, advancing the site's
  /// ordinal (and, when `actor` >= 0, the per-actor ordinal that rank=
  /// rules count against). Called only when armed(); the injector itself
  /// never sleeps or throws — call sites interpret the decision.
  FaultDecision evaluate(FaultSite site, int actor = -1);

  SiteStats stats(FaultSite site) const;
  std::uint64_t total_fires() const;
  std::vector<FaultRule> rules(FaultSite site) const;

 private:
  FaultInjector() = default;
  struct Impl;
  Impl& impl() const;
};

/// The per-site guard used at every injection point: one relaxed atomic
/// load when disabled, a full rule evaluation when armed.
inline FaultDecision fault_check(FaultSite site, int actor = -1) {
  if (!detail::faults_armed()) return {};
  return FaultInjector::instance().evaluate(site, actor);
}

}  // namespace zi
