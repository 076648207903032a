// StreamCoordinator — the forward-side half of automated data movement for
// partitioned parameters (Sec. 7.1): gather, release, and the
// overlap-centric traced prefetcher (Sec. 6.2), with no gradient or
// optimizer coupling.
//
// This is the streamed-execution core shared by training and serving:
//   * training uses the ParamCoordinator subclass (coordinator.hpp), which
//     layers gradient buffers and reduce-scatter on top;
//   * serving (src/serve) drives this class directly — a forward-only
//     consumer replays the same prefetch trace, streaming layer weights
//     tier -> GPU just ahead of compute, without ever allocating gradient
//     state.
//
// The prefetcher "traces the forward and backward computation on the fly,
// constructing an internal map of the operator sequence for each
// iteration" (Sec. 6.2): the first iteration records fetch order; later
// iterations issue asynchronous shard loads `prefetch_depth` fetches ahead
// (genuinely asynchronous when shards live on NVMe). If the observed
// sequence diverges (dynamic control flow), the stale suffix is discarded
// and re-recorded.
//
// Two serving-specific behaviors, both inert in the default kTraining mode:
//   * Mode::kServing — weights are immutable, so end_iteration() keeps
//     persistent (small) parameters gathered across steps, and fetches of
//     persistent parameters stay out of the trace (they happen only once,
//     so tracing them would invalidate the trace on the second step).
//   * reuse windows — begin_reuse_window()/end_reuse_window() defer
//     post-forward releases, so many batched request streams can pass
//     through one module while its weights stay gathered; the weights are
//     fetched (and traced) once per window, then released when the window
//     closes and compute moves to the next layer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/world.hpp"
#include "core/state_store.hpp"
#include "core/zero_config.hpp"
#include "model/module.hpp"
#include "move/data_mover.hpp"
#include "move/staging.hpp"

namespace zi {

/// One structured data-movement event (the Fig. 4 vocabulary). Replaces the
/// old free-form string callback: consumers get typed fields and can render
/// the legacy text with format_event().
struct DataMovementEvent {
  enum class Kind { kGather, kRelease, kPrefetch, kReduceScatter };
  Kind kind = Kind::kGather;
  std::string param;            ///< parameter name
  Placement tier = Placement::kGpu;  ///< source (gather/prefetch) or
                                     ///< destination (reduce-scatter) tier
  bool broadcast = false;       ///< gather used the broadcast baseline
  bool for_backward = false;    ///< gather serving the backward pass
  bool pinned_staging = false;  ///< prefetch staged into a pinned lease
};

/// The legacy Fig. 4 one-line rendering of an event ("allgather  wte  <-
/// nvme  (for forward)" etc.) — what the old string recorder produced.
std::string format_event(const DataMovementEvent& e);

class StreamCoordinator {
 public:
  /// kTraining: the exact legacy coordinator behavior (optimizer rewrites
  /// shards every step, so end_iteration force-releases everything).
  /// kServing: weights are immutable — persistent parameters stay gathered
  /// across steps and are excluded from the operator-sequence trace.
  enum class Mode { kTraining, kServing };

  struct Stats {
    std::uint64_t fetches = 0;
    std::uint64_t releases = 0;
    std::uint64_t prefetches_issued = 0;
    std::uint64_t prefetch_hits = 0;
    /// Prefetched data discarded unconsumed: trace invalidation/eval-mode
    /// drops, and staged reads abandoned because their wait() threw. The
    /// truth invariant is prefetches_issued == prefetch_hits +
    /// prefetch_drops + (entries still in flight).
    std::uint64_t prefetch_drops = 0;
    std::uint64_t trace_invalidations = 0;
    std::uint64_t auto_registrations = 0;  ///< Sec. 7.1.1 interceptions
    std::uint64_t grads_reduced = 0;       ///< ParamCoordinator only
    std::uint64_t allgather_fp16_elems = 0;
    std::uint64_t broadcast_fp16_elems = 0;  ///< broadcast-baseline traffic
    std::uint64_t reduce_scatter_fp16_elems = 0;  ///< ParamCoordinator only
    // Accumulated only while metrics are enabled (obs/metrics.hpp): wall
    // time inside fetch() gathers / reduce_and_store_grad().
    double fetch_seconds = 0.0;
    double reduce_seconds = 0.0;
  };

  StreamCoordinator(ModelStateStore& store, RankResources& res,
                    Communicator& comm, const EngineConfig& config);
  /// Blocks on any in-flight prefetch I/O: the staging buffers it owns
  /// must not be freed under an active async read.
  virtual ~StreamCoordinator();

  StreamCoordinator(const StreamCoordinator&) = delete;
  StreamCoordinator& operator=(const StreamCoordinator&) = delete;

  /// Install the fetch/release (and, for ParamCoordinator, reduce) hooks on
  /// `root` and all descendants.
  void install(Module& root);

  /// Call at the top of every iteration (training step or serve decode
  /// step): rotates the recorded trace into active use, resets the cursor.
  void begin_iteration();

  /// End-of-step cleanup. Training: force-releases persistent parameters
  /// (their shards were just updated by the optimizer, so the gathered
  /// copies are stale). Serving: weights are immutable, so persistent
  /// parameters stay gathered; only larger leftovers are re-partitioned.
  void end_iteration();

  /// Enter/leave evaluation mode: parameters are still gathered/released
  /// by the hooks, but the operator-sequence trace is neither recorded nor
  /// advanced (a forward-only pass must not invalidate the training trace).
  void set_eval_mode(bool eval);

  /// Select training vs serving semantics (see Mode). Call before the
  /// first iteration; switching with parameters gathered is not supported.
  void set_mode(Mode mode) { mode_ = mode; }
  Mode mode() const noexcept { return mode_; }

  /// Open a weight-reuse window: post-forward releases are deferred until
  /// end_reuse_window(), so consecutive forward passes (the batched request
  /// streams of one decode step) share one gather per parameter. Windows do
  /// not nest.
  void begin_reuse_window();
  /// Close the window: flush the deferred releases (persistence threshold
  /// still applies), freeing this layer's weights before the next layer's.
  void end_reuse_window();

  /// Gather one parameter now (public for tests and for eager warm-up).
  void fetch(Parameter* p, bool for_backward);
  /// Re-partition one parameter (frees its full tensor). Parameters under
  /// the persistence threshold are kept gathered unless `force` is set.
  void release(Parameter* p, bool force = false);

  const Stats& stats() const noexcept { return stats_; }

  /// The operator-sequence trace (parameter ids in fetch order) — exposed
  /// so tests can pin "eval/serving must not perturb the training trace".
  const std::vector<int>& trace() const noexcept { return trace_; }

  /// Install an observer for structured data-movement events — used to
  /// render the Fig. 4 trace from a live run (pipe through format_event for
  /// the classic text). Pass nullptr to disable.
  void set_observer(std::function<void(const DataMovementEvent&)> observer) {
    observer_ = std::move(observer);
  }

 protected:
  void emit(const DataMovementEvent& event) {
    if (observer_) observer_(event);
  }

  void on_pre_forward(Module& m);
  void on_post_forward(Module& m);
  /// Backward hooks: the base class fetches/releases exactly like forward
  /// (a forward-only consumer never runs them); ParamCoordinator overrides
  /// the gradient-reduction parts.
  virtual void on_pre_backward(Module& m);
  virtual void on_post_backward(Module& m);

  /// Gradient-buffer hook: fetch(p, /*for_backward=*/true) calls this
  /// before gathering. Forward-only streaming allocates nothing; the
  /// training subclass materializes the fp32 gradient buffer here.
  virtual void ensure_grad_buffer(Parameter* p) { (void)p; }

  void drop_prefetches();

  ModelStateStore& store_;
  RankResources& res_;
  Communicator& comm_;
  EngineConfig config_;
  std::unordered_map<int, Parameter*> params_by_id_;

  // Execution context for the access interceptor: the stack of modules
  // whose forward/backward is currently running, and whether we are in the
  // backward phase (an intercepted access then also needs a grad buffer).
  std::vector<Module*> module_stack_;
  bool in_backward_ = false;

  Stats stats_;
  std::function<void(const DataMovementEvent&)> observer_;

 private:
  // Prefetch staging comes from DataMover::stage(): a pinned-pool lease
  // when one fits and is free (the infinity offload engine reads into
  // pinned memory, Sec. 6.3), heap otherwise. The slot owns the staging
  // lease and the in-flight handle; destroying it (consume or drop)
  // returns the lease — exception paths can never strand a pinned buffer.
  struct PrefetchSlot {
    StagingLease staging;
    TransferHandle handle;
    std::span<half> view;  // staging.bytes() reinterpreted as half
  };

  static void intercept_access(void* ctx, Parameter* p);
  /// Consume the in-flight prefetch for param `id`, if any: the map entry
  /// is erased BEFORE waiting, so a wait() failure (RetriesExhaustedError)
  /// destroys the slot — releasing its pinned lease — instead of leaking a
  /// poisoned entry. Counts the hit or (on throw) the drop.
  std::optional<PrefetchSlot> take_prefetch(int id);
  void advance_trace(int param_id);
  void issue_prefetches();
  /// True when this fetch participates in the operator-sequence trace. In
  /// serving mode, persistent parameters are excluded: they are gathered
  /// once and then stay resident, so later steps would never replay their
  /// trace entries.
  bool traced_fetch(const Parameter* p) const;

  Mode mode_ = Mode::kTraining;

  // Operator-sequence trace (param ids in fetch order).
  std::vector<int> trace_;
  std::size_t cursor_ = 0;
  bool recording_ = true;
  bool eval_mode_ = false;

  // Reuse window: deferred post-forward releases, in first-deferral order
  // (determinism: every rank flushes in the same order).
  bool reuse_window_ = false;
  std::vector<int> deferred_releases_;

  std::unordered_map<int, PrefetchSlot> prefetch_;

  // Arena blocks backing gathered params: padded_numel fp16 values each,
  // viewed directly as the parameter's compute tensor.
  std::unordered_map<int, ArenaBlock> gathered_;
};

}  // namespace zi
