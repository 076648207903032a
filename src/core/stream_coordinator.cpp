#include "core/stream_coordinator.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/half.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zi {

std::string format_event(const DataMovementEvent& e) {
  switch (e.kind) {
    case DataMovementEvent::Kind::kGather:
      return std::string(e.broadcast ? "broadcast  " : "allgather  ") +
             e.param + "  <- " + tier_name(e.tier) +
             (e.for_backward ? "  (for backward)" : "  (for forward)");
    case DataMovementEvent::Kind::kRelease:
      return "release    " + e.param;
    case DataMovementEvent::Kind::kPrefetch:
      return "prefetch   " + e.param + "  (async, " +
             (e.pinned_staging ? "pinned buffer" : "heap staging") + ")";
    case DataMovementEvent::Kind::kReduceScatter:
      return "reducescat " + e.param + "  -> grad shard on " +
             tier_name(e.tier);
  }
  return {};
}

StreamCoordinator::StreamCoordinator(ModelStateStore& store,
                                     RankResources& res, Communicator& comm,
                                     const EngineConfig& config)
    : store_(store), res_(res), comm_(comm), config_(config) {
  ZI_CHECK_MSG(config_.params_partitioned(),
               "StreamCoordinator requires ZeRO stage 3");
  for (Parameter* p : store_.params()) params_by_id_.emplace(p->id(), p);
}

StreamCoordinator::~StreamCoordinator() {
  set_parameter_access_interceptor(nullptr, nullptr);
  // An exception mid-iteration can leave prefetch reads in flight; their
  // completion must land before the staging buffers are destroyed (and any
  // I/O error is swallowed — it was already the failure being unwound).
  drop_prefetches();
}

void StreamCoordinator::install(Module& root) {
  Module::Hooks hooks;
  hooks.pre_forward = [this](Module& m) { on_pre_forward(m); };
  hooks.post_forward = [this](Module& m) { on_post_forward(m); };
  hooks.pre_backward = [this](Module& m) { on_pre_backward(m); };
  hooks.post_backward = [this](Module& m) { on_post_backward(m); };
  root.install_hooks(hooks);
  // Automatic external-parameter registration (Sec. 7.1.1): compute that
  // touches an ungathered parameter lands here instead of failing.
  set_parameter_access_interceptor(&StreamCoordinator::intercept_access, this);
}

void StreamCoordinator::intercept_access(void* ctx, Parameter* p) {
  auto* self = static_cast<StreamCoordinator*>(ctx);
  if (self->module_stack_.empty()) return;  // outside hook-driven compute
  Module* current = self->module_stack_.back();
  // Gather now (blocking; a collective — every rank executes the same
  // deterministic access), and register on the consuming module so all
  // future iterations gather/release it through the normal hooks.
  self->fetch(p, self->in_backward_);
  current->register_external_parameter(p);
  ++self->stats_.auto_registrations;
}

void StreamCoordinator::begin_iteration() {
  cursor_ = 0;
  // The trace recorded last iteration becomes the prediction for this one.
  if (recording_ && !trace_.empty()) recording_ = false;
  drop_prefetches();
}

void StreamCoordinator::end_iteration() {
  ZI_CHECK_MSG(!reuse_window_, "end_iteration inside a reuse window");
  // Training: persistent parameters survived the per-module releases; the
  // optimizer has just rewritten their shards, so the gathered copies
  // are stale and must be re-partitioned before the next gather. Serving:
  // weights are immutable — non-force release leaves them resident.
  const bool force = mode_ == Mode::kTraining;
  for (Parameter* p : store_.params()) {
    if (p->status() == Parameter::Status::kAvailable) {
      release(p, force);
    }
  }
}

void StreamCoordinator::set_eval_mode(bool eval) {
  if (eval) drop_prefetches();
  eval_mode_ = eval;
}

void StreamCoordinator::begin_reuse_window() {
  ZI_CHECK_MSG(!reuse_window_, "reuse windows do not nest");
  reuse_window_ = true;
}

void StreamCoordinator::end_reuse_window() {
  ZI_CHECK_MSG(reuse_window_, "end_reuse_window without begin_reuse_window");
  reuse_window_ = false;
  for (int id : deferred_releases_) {
    release(params_by_id_.at(id), /*force=*/false);
  }
  deferred_releases_.clear();
}

void StreamCoordinator::on_pre_forward(Module& m) {
  module_stack_.push_back(&m);
  in_backward_ = false;
  for (Parameter* p : m.compute_parameters()) fetch(p, /*for_backward=*/false);
}

void StreamCoordinator::on_post_forward(Module& m) {
  for (Parameter* p : m.compute_parameters()) release(p);
  if (!module_stack_.empty() && module_stack_.back() == &m) {
    module_stack_.pop_back();
  }
}

void StreamCoordinator::on_pre_backward(Module& m) {
  module_stack_.push_back(&m);
  in_backward_ = true;
  for (Parameter* p : m.compute_parameters()) fetch(p, /*for_backward=*/true);
}

void StreamCoordinator::on_post_backward(Module& m) {
  // Forward-only base behavior: release everything this module gathered.
  // The training subclass overrides this to reduce gradients first.
  for (const auto& p : m.own_parameters()) release(p.get());
  for (Parameter* p : m.external_parameters()) release(p);
  if (!module_stack_.empty() && module_stack_.back() == &m) {
    module_stack_.pop_back();
  }
}

bool StreamCoordinator::traced_fetch(const Parameter* p) const {
  if (eval_mode_) return false;
  // Serving: a persistent parameter is gathered exactly once and then stays
  // resident, so its trace entry would never replay — keep it out of the
  // operator sequence instead of invalidating the trace on step two.
  if (mode_ == Mode::kServing &&
      p->numel() <= config_.persistence_threshold_elems) {
    return false;
  }
  return true;
}

void StreamCoordinator::fetch(Parameter* p, bool for_backward) {
  if (for_backward) ensure_grad_buffer(p);
  if (p->status() == Parameter::Status::kAvailable) return;
  ++stats_.fetches;
  if (traced_fetch(p)) advance_trace(p->id());

  ZI_TRACE_SPAN("coord", "gather:" + p->name(),
                std::string("\"backward\":") +
                    (for_backward ? "true" : "false"));
  using Clock = std::chrono::steady_clock;
  const bool timed = MetricsSink::enabled();
  const auto fetch_t0 = timed ? Clock::now() : Clock::time_point{};

  // The gathered parameter is one GPU arena block of the padded fp16 size
  // (the cg-transfer target). It is the compute tensor itself: the kernels
  // widen it as they read it. This is where "GPU" capacity pressure is
  // enforced.
  const ShardSpec& spec = store_.param_spec(p);
  ArenaBlock block = res_.gpu().allocate(
      static_cast<std::uint64_t>(spec.padded_numel()) * sizeof(half));
  const std::span<half> full(reinterpret_cast<half*>(block.data()),
                             static_cast<std::size_t>(spec.padded_numel()));
  // Materialize the full fp16 values: bandwidth-centric allgather (every
  // rank's link carries 1/dp in parallel, Sec. 6.1) or the broadcast
  // baseline (the owner's link carries everything — the ZeRO/ZeRO-Offload
  // data path the paper contrasts against).
  if (store_.broadcast_mode()) {
    const std::span<half> values =
        full.first(static_cast<std::size_t>(p->numel()));
    if (comm_.rank() == store_.param_owner(p)) {
      // Only the owner ever stages a prefetch in broadcast mode (see the
      // suppression in issue_prefetches), so only the owner consumes one.
      if (std::optional<PrefetchSlot> staged = take_prefetch(p->id())) {
        std::copy(staged->view.begin(), staged->view.end(), values.begin());
      } else {
        store_.load_param_full(p, values);
      }
    }
    comm_.broadcast<half>(values, store_.param_owner(p));
    stats_.broadcast_fp16_elems += values.size();
  } else {
    const auto shard_n = static_cast<std::size_t>(spec.shard_elems);
    // 1. Local shard: consume the prefetched copy if one is in flight
    //    (`staged` keeps the staging buffer alive through the allgather),
    //    else load synchronously from the parameter's tier (the
    //    nc-transfer) into this rank's own slot of the block.
    std::optional<PrefetchSlot> staged = take_prefetch(p->id());
    std::span<const half> shard;
    if (staged) {
      shard = staged->view;
    } else {
      const std::span<half> own = full.subspan(
          static_cast<std::size_t>(comm_.rank()) * shard_n, shard_n);
      store_.load_param_shard(p, own);
      shard = own;
    }
    // 2. Allgather the padded fp16 parameter across ranks straight into
    //    the block (the gg-transfer; every rank moved only 1/dp of the data
    //    from slow memory).
    comm_.allgather<half>(shard, full);
    // Weighted shards: slots carry unequal real chunks — compact them into
    // the flat layout the kernels read (no-op for uniform specs).
    compact_gathered<half>(spec, full);
    stats_.allgather_fp16_elems += shard_n;
  }
  p->full_tensor() = Tensor::view(p->shape(), DType::kF16, block.data());
  gathered_.emplace(p->id(), std::move(block));
  p->set_status(Parameter::Status::kAvailable);
  if (timed) {
    stats_.fetch_seconds +=
        std::chrono::duration<double>(Clock::now() - fetch_t0).count();
  }
  if (observer_) {
    DataMovementEvent ev;
    ev.kind = DataMovementEvent::Kind::kGather;
    ev.param = p->name();
    ev.tier = config_.param_placement;
    ev.broadcast = store_.broadcast_mode();
    ev.for_backward = for_backward;
    emit(ev);
  }

  issue_prefetches();
}

std::optional<StreamCoordinator::PrefetchSlot> StreamCoordinator::take_prefetch(
    int id) {
  auto it = prefetch_.find(id);
  if (it == prefetch_.end()) return std::nullopt;
  PrefetchSlot slot = std::move(it->second);
  prefetch_.erase(it);
  try {
    // wait() returns (or throws) only once every sub-request has completed,
    // so destroying the staging lease afterwards is safe even on failure.
    slot.handle.wait();
  } catch (...) {
    // Staged data abandoned; the pinned lease is released by slot's
    // destructor during unwinding, and the next fetch of this parameter
    // falls back to a clean synchronous load.
    ++stats_.prefetch_drops;
    throw;
  }
  ++stats_.prefetch_hits;
  return slot;
}

void StreamCoordinator::release(Parameter* p, bool force) {
  if (p->status() != Parameter::Status::kAvailable) return;
  if (!force && p->numel() <= config_.persistence_threshold_elems) {
    return;  // small parameter: stays gathered for the rest of the step
  }
  if (!force && reuse_window_) {
    // Inside a weight-reuse window: the next batched request stream is
    // about to run this module again — keep the gather, flush at window
    // end. (The status check above makes duplicate deferrals no-ops.)
    deferred_releases_.push_back(p->id());
    return;
  }
  ++stats_.releases;
  if (observer_) {
    DataMovementEvent ev;
    ev.kind = DataMovementEvent::Kind::kRelease;
    ev.param = p->name();
    emit(ev);
  }
  p->full_tensor() = Tensor();
  gathered_.erase(p->id());  // frees the arena block
  p->set_status(Parameter::Status::kNotAvailable);
}

void StreamCoordinator::advance_trace(int param_id) {
  if (recording_) {
    trace_.push_back(param_id);
  } else if (cursor_ >= trace_.size() ||
             trace_[cursor_] != param_id) {
    // Dynamic workflow: the operator sequence changed. Keep the verified
    // prefix, re-record from here (Sec. 6.2: "ZeRO-Infinity can update the
    // operator sequence map in case of dynamic workflow").
    ++stats_.trace_invalidations;
    trace_.resize(cursor_);
    trace_.push_back(param_id);
    recording_ = true;
    drop_prefetches();
  }
  ++cursor_;
}

void StreamCoordinator::issue_prefetches() {
  if (eval_mode_ || recording_ || !config_.overlap_transfers ||
      config_.prefetch_depth <= 0) {
    return;
  }
  const std::size_t end =
      std::min(trace_.size(),
               cursor_ + static_cast<std::size_t>(config_.prefetch_depth));
  for (std::size_t i = cursor_; i < end; ++i) {
    const int id = trace_[i];
    if (prefetch_.contains(id)) continue;
    Parameter* p = params_by_id_.at(id);
    if (p->status() == Parameter::Status::kAvailable) continue;
    if (store_.broadcast_mode() && store_.param_owner(p) != comm_.rank()) {
      continue;  // only the owner has anything to pre-load
    }
    const std::size_t elems =
        store_.broadcast_mode()
            ? static_cast<std::size_t>(p->numel())
            : static_cast<std::size_t>(store_.param_spec(p).shard_elems);
    // Staging comes from the DataMover: pinned lease when one fits and is
    // free, heap otherwise (Sec. 6.3) — the same fault-injection site
    // (pinned_acquire) as before sits inside stage().
    PrefetchSlot slot;
    slot.staging = res_.mover().stage(elems * sizeof(half));
    slot.view = {reinterpret_cast<half*>(slot.staging.bytes().data()), elems};
    // Speculative traffic: a prefetch nobody is blocked on yet rides the
    // bulk class, so a concurrent miss-path load (kLatency) overtakes it
    // in the transfer scheduler.
    slot.handle =
        store_.broadcast_mode()
            ? store_.load_param_full_async(p, slot.view, TransferClass::kBulk)
            : store_.load_param_shard_async(p, slot.view,
                                            TransferClass::kBulk);
    ZI_TRACE_INSTANT("coord", "prefetch:" + p->name(),
                     "\"bytes\":" + std::to_string(elems * sizeof(half)));
    if (observer_) {
      DataMovementEvent ev;
      ev.kind = DataMovementEvent::Kind::kPrefetch;
      ev.param = p->name();
      ev.tier = config_.param_placement;
      ev.broadcast = store_.broadcast_mode();
      ev.pinned_staging = slot.staging.pinned();
      emit(ev);
    }
    prefetch_.emplace(id, std::move(slot));
    ++stats_.prefetches_issued;
  }
}

void StreamCoordinator::drop_prefetches() {
  for (auto& [id, slot] : prefetch_) {
    try {
      // In-flight reads must land before their staging leases die; an I/O
      // failure is immaterial here — the staged data is discarded anyway.
      slot.handle.wait();
    } catch (...) {
    }
    ++stats_.prefetch_drops;
  }
  prefetch_.clear();
}

}  // namespace zi
