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
// iterations replay it in buckets and issue asynchronous shard loads
// `prefetch_depth` buckets ahead (genuinely asynchronous when shards live
// on NVMe). If the observed sequence diverges (dynamic control flow), the
// stale suffix is discarded and re-recorded.
//
// Buckets (ZeRO's fused buffers, arXiv 1910.02054 Sec. 6.3): once the trace
// replays it is cut before every matrix (2-D parameter), so a bucket is one
// matrix plus the 1-D parameters (biases, LayerNorm gains) fetched after
// it, each parameter at most once. The first member's fetch gathers the
// whole bucket with one segmented allgather into one arena block; each
// member's view starts on the arena grain, so the block holds exactly the
// bytes one block per member would, and it is freed at the last member's
// release. The other members' fetches only claim their views, so events
// and Stats::fetches stay per parameter. Recording, eval mode, the access
// interceptor, persistent parameters and the broadcast baseline gather one
// parameter at a time.
//
// Mode::kServing, inert in the default kTraining mode: weights are
// immutable, so end_iteration() keeps persistent (small) parameters
// gathered across steps, and fetches of persistent parameters stay out of
// the trace (they happen only once, so tracing them would invalidate the
// trace on the second step).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
    // time inside fetch() gathers / gradient narrowing and reduction.
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

  /// Gather one parameter now (public for tests and for eager warm-up). On
  /// a replayed trace this gathers the whole bucket the parameter opens.
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

  /// begin_iteration() calls this: the training subclass drops gradients
  /// an interrupted backward left queued for reduction.
  virtual void drop_queued_grads() {}

  void drop_prefetches();

  /// Buckets are cut before every matrix (2-D parameter).
  static bool is_matrix(const Parameter* p) { return p->shape().size() > 1; }

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
  // Prefetch staging comes from DataMover::stage(): one lease per bucket, a
  // pinned-pool lease when one fits and is free (the infinity offload
  // engine reads into pinned memory, Sec. 6.3), heap otherwise. The lease
  // holds the members' shards back to back and is the allgather's send
  // buffer. The slot owns the lease and the members' in-flight handles;
  // destroying it (consume or drop) returns the lease — exception paths can
  // never strand a pinned buffer.
  struct PrefetchSlot {
    StagingLease staging;
    std::vector<TransferHandle> handles;  // one per member
    std::span<half> view;  // staging.bytes() reinterpreted as half
  };

  // A gathered parameter's arena block, shared by its bucket's members.
  using SharedBlock = std::shared_ptr<ArenaBlock>;
  // A member's view into its bucket's block, waiting for its own fetch.
  struct BucketView {
    SharedBlock block;
    std::size_t offset = 0;  // bytes
  };

  static void intercept_access(void* ctx, Parameter* p);
  /// fetch(), with `bucket` false when the parameter must be gathered
  /// alone even where it opens a bucket (the access interceptor).
  void fetch(Parameter* p, bool for_backward, bool bucket);
  /// Gather `members` into one arena block with one collective, from the
  /// prefetched shards in `staged` when there are any, and leave each
  /// member's view in bucket_views_.
  void gather(std::span<Parameter* const> members,
              std::optional<PrefetchSlot> staged);
  /// Consume the in-flight prefetch of the bucket at trace position `pos`,
  /// if any: the map entry is erased BEFORE waiting, so a wait() failure
  /// (RetriesExhaustedError) destroys the slot — releasing its pinned lease
  /// — instead of leaking a poisoned entry. Counts the hit or (on throw)
  /// the drop.
  std::optional<PrefetchSlot> take_prefetch(std::size_t pos);
  void advance_trace(int param_id);
  /// Cut the replayed trace into buckets (bucket_end_).
  void cut_buckets();
  void issue_prefetches();
  /// Stage the shards of the bucket [pos, end) of the trace.
  void prefetch_bucket(std::size_t pos, std::size_t end);
  /// Elements this rank loads for `p`: its shard, or in broadcast mode the
  /// whole parameter.
  std::size_t staged_elems(const Parameter* p) const;
  /// True when this fetch participates in the operator-sequence trace. In
  /// serving mode, persistent parameters are excluded: they are gathered
  /// once and then stay resident, so later steps would never replay their
  /// trace entries.
  bool traced_fetch(const Parameter* p) const;
  bool persistent(const Parameter* p) const {
    return p->numel() <= config_.persistence_threshold_elems;
  }

  Mode mode_ = Mode::kTraining;

  // Operator-sequence trace (param ids in fetch order).
  std::vector<int> trace_;
  std::size_t cursor_ = 0;
  bool recording_ = true;
  bool eval_mode_ = false;
  // While the trace replays: bucket_end_[i] is one past the last member of
  // the bucket that starts at position i, and 0 where no bucket starts.
  std::vector<std::size_t> bucket_end_;

  // In-flight prefetches, by the trace position of their bucket.
  std::unordered_map<std::size_t, PrefetchSlot> prefetch_;

  // Views gathered with their bucket and not yet fetched, by param id.
  std::unordered_map<int, BucketView> bucket_views_;
  // Blocks backing gathered params, by param id: padded_numel fp16 values
  // from the view's start, read directly as the parameter's compute tensor.
  std::unordered_map<int, SharedBlock> gathered_;
  // Send buffer of a bucket gathered without a prefetch (reused).
  std::vector<half> gather_send_;
};

}  // namespace zi
