#include "core/stream_coordinator.hpp"

#include <algorithm>
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
  self->fetch(p, self->in_backward_, /*bucket=*/false);
  current->register_external_parameter(p);
  ++self->stats_.auto_registrations;
}

void StreamCoordinator::begin_iteration() {
  cursor_ = 0;
  // The trace recorded last iteration becomes the prediction for this one.
  if (recording_ && !trace_.empty()) {
    recording_ = false;
    cut_buckets();
  }
  drop_prefetches();
  bucket_views_.clear();
  // An iteration cut short by an exception leaves its hooks' state behind.
  module_stack_.clear();
  in_backward_ = false;
  drop_queued_grads();
}

void StreamCoordinator::end_iteration() {
  // Training: persistent parameters survived the per-module releases; the
  // optimizer has just rewritten their shards, so the gathered copies
  // are stale and must be re-partitioned before the next gather. Serving:
  // weights are immutable — non-force release leaves them resident.
  const bool force = mode_ == Mode::kTraining;
  bucket_views_.clear();
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
  fetch(p, for_backward, /*bucket=*/true);
}

void StreamCoordinator::fetch(Parameter* p, bool for_backward, bool bucket) {
  if (for_backward) ensure_grad_buffer(p);
  if (p->status() == Parameter::Status::kAvailable) return;
  ++stats_.fetches;
  const std::size_t pos = cursor_;
  const bool traced = traced_fetch(p);
  if (traced) advance_trace(p->id());

  ZI_TRACE_SPAN("coord", "gather:" + p->name(),
                std::string("\"backward\":") +
                    (for_backward ? "true" : "false"));
  using Clock = std::chrono::steady_clock;
  const bool timed = MetricsSink::enabled();
  const auto fetch_t0 = timed ? Clock::now() : Clock::time_point{};

  auto view = bucket_views_.extract(p->id());
  if (view.empty()) {
    // Gathered with an earlier member's bucket, or now: with the bucket p
    // opens on a replayed trace, else alone.
    std::vector<Parameter*> members{p};
    std::optional<PrefetchSlot> staged;
    if (bucket && traced && !recording_ && bucket_end_[pos] > 0) {
      for (std::size_t i = pos + 1; i < bucket_end_[pos]; ++i) {
        members.push_back(params_by_id_.at(trace_[i]));
      }
      staged = take_prefetch(pos);
    }
    gather(members, std::move(staged));
    view = bucket_views_.extract(p->id());
  }
  std::byte* data = view.mapped().block->data() + view.mapped().offset;
  p->full_tensor() = Tensor::view(p->shape(), DType::kF16, data);
  gathered_.insert_or_assign(p->id(), std::move(view.mapped().block));
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

void StreamCoordinator::gather(std::span<Parameter* const> members,
                               std::optional<PrefetchSlot> staged) {
  // The gathered bucket is one GPU arena block (the cg-transfer target);
  // each member's padded fp16 view in it starts on the arena grain and is
  // that parameter's compute tensor: the kernels widen it as they read it.
  // This is where "GPU" capacity pressure is enforced.
  std::vector<std::size_t> offsets;
  std::uint64_t bytes = 0;
  for (const Parameter* p : members) {
    offsets.push_back(bytes);
    const auto padded =
        static_cast<std::uint64_t>(store_.param_spec(p).padded_numel());
    bytes += (padded * sizeof(half) + kArenaGrain - 1) / kArenaGrain *
             kArenaGrain;
  }
  auto block = std::make_shared<ArenaBlock>(res_.gpu().allocate(bytes));
  std::vector<std::span<half>> full;
  for (std::size_t m = 0; m < members.size(); ++m) {
    full.emplace_back(reinterpret_cast<half*>(block->data() + offsets[m]),
                      static_cast<std::size_t>(
                          store_.param_spec(members[m]).padded_numel()));
  }
  // Materialize the full fp16 values: bandwidth-centric allgather (every
  // rank's link carries 1/dp in parallel, Sec. 6.1) or the broadcast
  // baseline (the owner's link carries everything — the ZeRO/ZeRO-Offload
  // data path the paper contrasts against).
  if (store_.broadcast_mode()) {
    ZI_CHECK(members.size() == 1);
    Parameter* p = members.front();
    const std::span<half> values =
        full.front().first(static_cast<std::size_t>(p->numel()));
    if (comm_.rank() == store_.param_owner(p)) {
      // Only the owner ever stages a prefetch in broadcast mode (see the
      // suppression in issue_prefetches), so only the owner consumes one.
      if (staged) {
        std::copy(staged->view.begin(), staged->view.end(), values.begin());
      } else {
        store_.load_param_full(p, values);
      }
    }
    comm_.broadcast<half>(values, store_.param_owner(p));
    stats_.broadcast_fp16_elems += values.size();
  } else {
    // 1. Local shards: the prefetched copies if they are in flight
    //    (`staged` keeps the staging buffer alive through the allgather),
    //    else synchronous loads from the parameters' tier (the
    //    nc-transfer) — alone, into this rank's own slot of the block.
    std::span<const half> send;
    if (staged) {
      send = staged->view;
    } else if (members.size() == 1) {
      const auto shard_n =
          static_cast<std::size_t>(store_.param_spec(members[0]).shard_elems);
      const std::span<half> own = full.front().subspan(
          static_cast<std::size_t>(comm_.rank()) * shard_n, shard_n);
      store_.load_param_shard(members[0], own);
      send = own;
    } else {
      gather_send_.clear();
      for (Parameter* p : members) {
        const std::size_t at = gather_send_.size();
        gather_send_.resize(at + staged_elems(p));
        store_.load_param_shard(p, std::span<half>(gather_send_).subspan(at));
      }
      send = gather_send_;
    }
    // 2. Allgather the padded fp16 parameters across ranks straight into
    //    the block, one segment per member (the gg-transfer; every rank
    //    moved only 1/dp of the data from slow memory).
    comm_.allgather<half>(send, full);
    for (std::size_t m = 0; m < members.size(); ++m) {
      // Weighted shards: slots carry unequal real chunks — compact them
      // into the flat layout the kernels read (no-op for uniform specs).
      compact_gathered<half>(store_.param_spec(members[m]), full[m]);
      stats_.allgather_fp16_elems += staged_elems(members[m]);
    }
  }
  for (std::size_t m = 0; m < members.size(); ++m) {
    bucket_views_.insert_or_assign(members[m]->id(),
                                   BucketView{block, offsets[m]});
  }
}

std::optional<StreamCoordinator::PrefetchSlot> StreamCoordinator::take_prefetch(
    std::size_t pos) {
  auto it = prefetch_.find(pos);
  if (it == prefetch_.end()) return std::nullopt;
  PrefetchSlot slot = std::move(it->second);
  prefetch_.erase(it);
  try {
    // wait_all() returns (or throws) only once every member's read has
    // completed, so destroying the staging lease afterwards is safe even
    // on failure.
    wait_all(slot.handles);
  } catch (...) {
    // Staged data abandoned; the pinned lease is released by slot's
    // destructor during unwinding, and the next fetch of this bucket
    // falls back to a clean synchronous load.
    ++stats_.prefetch_drops;
    throw;
  }
  ++stats_.prefetch_hits;
  return slot;
}

void StreamCoordinator::release(Parameter* p, bool force) {
  if (p->status() != Parameter::Status::kAvailable) return;
  if (!force && persistent(p)) {
    return;  // small parameter: stays gathered for the rest of the step
  }
  ++stats_.releases;
  if (observer_) {
    DataMovementEvent ev;
    ev.kind = DataMovementEvent::Kind::kRelease;
    ev.param = p->name();
    emit(ev);
  }
  p->full_tensor() = Tensor();
  gathered_.erase(p->id());  // frees the block with its bucket's last member
  p->set_status(Parameter::Status::kNotAvailable);
}

void StreamCoordinator::advance_trace(int param_id) {
  if (recording_) {
    trace_.push_back(param_id);
  } else if (cursor_ >= trace_.size() ||
             trace_[cursor_] != param_id) {
    // Dynamic workflow: the operator sequence changed. Keep the verified
    // prefix, re-record from here (Sec. 6.2: "ZeRO-Infinity can update the
    // operator sequence map in case of dynamic workflow"). Bucket members
    // not yet fetched are dropped; their block lives on while a fetched
    // member holds it.
    ++stats_.trace_invalidations;
    trace_.resize(cursor_);
    trace_.push_back(param_id);
    recording_ = true;
    drop_prefetches();
    bucket_views_.clear();
  }
  ++cursor_;
}

void StreamCoordinator::cut_buckets() {
  bucket_end_.assign(trace_.size(), 0);
  std::size_t start = 0;
  for (std::size_t i = 1; i <= trace_.size(); ++i) {
    bool cut = i == trace_.size() || store_.broadcast_mode();
    if (!cut) {
      const Parameter* p = params_by_id_.at(trace_[i]);
      const auto first = trace_.begin() + static_cast<std::ptrdiff_t>(start);
      const auto here = trace_.begin() + static_cast<std::ptrdiff_t>(i);
      cut = is_matrix(p) || persistent(p) ||
            persistent(params_by_id_.at(trace_[i - 1])) ||
            std::find(first, here, trace_[i]) != here;
    }
    if (cut) {
      bucket_end_[start] = i;
      start = i;
    }
  }
}

std::size_t StreamCoordinator::staged_elems(const Parameter* p) const {
  return store_.broadcast_mode()
             ? static_cast<std::size_t>(p->numel())
             : static_cast<std::size_t>(store_.param_spec(p).shard_elems);
}

void StreamCoordinator::issue_prefetches() {
  if (eval_mode_ || recording_ || !config_.overlap_transfers ||
      config_.prefetch_depth <= 0) {
    return;
  }
  // The next prefetch_depth buckets that start at or after the cursor.
  std::size_t pos = cursor_;
  for (int ahead = 0; ahead < config_.prefetch_depth; ++ahead) {
    while (pos < trace_.size() && bucket_end_[pos] == 0) ++pos;
    if (pos >= trace_.size()) return;
    if (!prefetch_.contains(pos)) prefetch_bucket(pos, bucket_end_[pos]);
    pos = bucket_end_[pos];
  }
}

void StreamCoordinator::prefetch_bucket(std::size_t pos, std::size_t end) {
  Parameter* lead = params_by_id_.at(trace_[pos]);
  if (store_.broadcast_mode() && store_.param_owner(lead) != comm_.rank()) {
    return;  // only the owner has anything to pre-load
  }
  std::size_t elems = 0;
  for (std::size_t i = pos; i < end; ++i) {
    elems += staged_elems(params_by_id_.at(trace_[i]));
  }
  // Staging comes from the DataMover: pinned lease when one fits and is
  // free, heap otherwise (Sec. 6.3) — the same fault-injection site
  // (pinned_acquire) as before sits inside stage().
  PrefetchSlot slot;
  slot.staging = res_.mover().stage(elems * sizeof(half));
  slot.view = {reinterpret_cast<half*>(slot.staging.bytes().data()), elems};
  try {
    std::size_t at = 0;
    for (std::size_t i = pos; i < end; ++i) {
      Parameter* p = params_by_id_.at(trace_[i]);
      const std::size_t n = staged_elems(p);
      // Speculative traffic: a prefetch nobody is blocked on yet rides the
      // bulk class, so a concurrent miss-path load (kLatency) overtakes it
      // in the transfer scheduler.
      slot.handles.push_back(
          store_.broadcast_mode()
              ? store_.load_param_full_async(p, slot.view.subspan(at, n),
                                             TransferClass::kBulk)
              : store_.load_param_shard_async(p, slot.view.subspan(at, n),
                                              TransferClass::kBulk));
      at += n;
      if (observer_) {
        DataMovementEvent ev;
        ev.kind = DataMovementEvent::Kind::kPrefetch;
        ev.param = p->name();
        ev.tier = config_.param_placement;
        ev.broadcast = store_.broadcast_mode();
        ev.pinned_staging = slot.staging.pinned();
        emit(ev);
      }
    }
  } catch (...) {
    // Reads already issued must land before the lease dies.
    try {
      wait_all(slot.handles);
    } catch (...) {
    }
    throw;
  }
  ZI_TRACE_INSTANT("coord", "prefetch:" + lead->name(),
                   "\"bytes\":" + std::to_string(elems * sizeof(half)));
  prefetch_.emplace(pos, std::move(slot));
  ++stats_.prefetches_issued;
}

void StreamCoordinator::drop_prefetches() {
  for (auto& [pos, slot] : prefetch_) {
    try {
      // In-flight reads must land before their staging leases die; an I/O
      // failure is immaterial here — the staged data is discarded anyway.
      wait_all(slot.handles);
    } catch (...) {
    }
    ++stats_.prefetch_drops;
  }
  prefetch_.clear();
}

}  // namespace zi
