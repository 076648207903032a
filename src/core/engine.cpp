#include "core/engine.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "common/half.hpp"
#include "core/ckpt_io.hpp"
#include "core/elastic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optim/adam.hpp"

namespace zi {

namespace {

std::filesystem::path ensure_nvme_dir(const EngineConfig& config) {
  std::filesystem::path dir(config.nvme_dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

ZeroEngine::ZeroEngine(TrainableModel& model, Communicator& comm,
                       AioEngine& aio, EngineConfig config)
    : model_(model),
      comm_(comm),
      config_(config),
      res_(comm.rank(), aio, config.gpu_arena_bytes, config.nvme_capacity,
           ensure_nvme_dir(config), config.pinned_buffer_bytes,
           config.pinned_buffer_count, DeviceArena::Mode::kReal,
           config.gpu_prefragment_chunk, config.spill_on_oom),
      store_(res_, config_, model.module().all_parameters(), comm.rank(),
             comm.size()),
      driver_(store_, config_),
      scaler_(config_.loss_scale) {
  ZI_CHECK_MSG(!config_.inference_only,
               "ZeroEngine trains; forward-only configs belong to "
               "StreamEngine (core/stream_engine.hpp)");
  if (!config_.rank_weights.empty()) {
    // Weighted (heterogeneous) sharding is defined only where every state
    // tensor is sliced across all ranks: stages 0-2 copy the flat front of
    // allgathered buffers, and broadcast mode owns parameters whole.
    ZI_CHECK_MSG(config_.params_partitioned() && config_.bandwidth_centric,
                 "rank_weights requires ZeRO stage 3 with bandwidth-centric "
                 "partitioning");
    ZI_CHECK_MSG(static_cast<int>(config_.rank_weights.size()) == comm.size(),
                 "rank_weights size " << config_.rank_weights.size()
                                      << " != world " << comm.size());
  }
  if (config_.params_partitioned()) {
    ZI_CHECK_MSG(config_.bandwidth_centric ||
                     config_.optimizer_placement != Placement::kNvme,
                 "broadcast-based retrieval (the ZeRO-Offload baseline) "
                 "predates NVMe optimizer offload");
    coordinator_ =
        std::make_unique<ParamCoordinator>(store_, res_, comm_, config_);
    coordinator_->install(model_.module());
  } else {
    ZI_CHECK_MSG(config_.param_placement == Placement::kGpu,
                 "stages 0-2 keep replicated parameters on GPU (Table 2)");
    ZI_CHECK_MSG(config_.optimizer_placement != Placement::kNvme,
                 "NVMe optimizer state requires ZeRO stage 3");
    local_store_ = std::make_unique<LocalParamStore>(model_.module());
    // Enforce the replicated GPU footprint: fp16 params (2 B, also the
    // compute operand) + fp32 gradients (4 B) per element — the "model
    // state redundancies" of Fig. 6a that cap data parallelism at 1.4B —
    // plus 4 B for the fp32 compute copy replicated stages held before
    // compute read fp16 directly. That charge is kept because the Table 2
    // ladder in test_engine is sized with it (ROADMAP: count the whole GPU
    // footprint).
    const std::uint64_t replicated_bytes =
        static_cast<std::uint64_t>(local_store_->total_numel()) * (2 + 4 + 4);
    replicated_reservation_ = res_.gpu().allocate(replicated_bytes);
    res_.accountant().add(Tier::kGpu, replicated_bytes);
  }

  switch (config_.activation_placement) {
    case Placement::kGpu:
      break;  // checkpoints stay local
    case Placement::kCpu:
      act_offloader_ = std::make_unique<CpuActivationOffloader>(res_);
      model_.set_activation_offloader(act_offloader_.get());
      break;
    case Placement::kNvme:
      act_offloader_ = std::make_unique<NvmeActivationOffloader>(res_);
      model_.set_activation_offloader(act_offloader_.get());
      break;
  }
}

ZeroEngine::~ZeroEngine() {
  model_.set_activation_offloader(nullptr);
  model_.module().install_hooks({});  // detach coordinator hooks
  if (replicated_reservation_.valid()) {
    res_.accountant().sub(Tier::kGpu, replicated_reservation_.size());
  }
}

ZeroEngine::StepStats ZeroEngine::train_step(
    std::span<const std::int32_t> tokens,
    std::span<const std::int32_t> targets) {
  const MicroBatch micro{tokens, targets};
  return train_step(std::span<const MicroBatch>(&micro, 1));
}

ZeroEngine::StepStats ZeroEngine::train_step(
    std::span<const MicroBatch> micro_batches) {
  ZI_CHECK(!micro_batches.empty());
  ++step_;
  ZI_TRACE_SPAN("engine", "step", "\"step\":" + std::to_string(step_));
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto step_t0 = Clock::now();
  const float cur_scale = scaler_.scale();
  const float world = static_cast<float>(comm_.size());
  const auto num_micro = static_cast<float>(micro_batches.size());

  StepStats st;
  st.loss_scale = cur_scale;
  // Gradient averaging over (ranks × micro-batches) folds into the loss
  // scale: each backward produces grads of (scale/(world·k))·loss; the
  // reduced-and-accumulated sum is scale·mean-grad, and the optimizer
  // unscales by `scale`. Every micro-batch is reduced in fp16 immediately
  // (identical rounding points across all strategies → exactness holds
  // with accumulation too).
  double loss_sum = 0.0;
  for (std::size_t m = 0; m < micro_batches.size(); ++m) {
    if (coordinator_ != nullptr) {
      coordinator_->begin_iteration();
      coordinator_->set_grad_accumulation(m > 0);
    } else {
      local_store_->zero_grads();
    }
    const auto t0 = Clock::now();
    {
      ZI_TRACE_SPAN("engine", "fwd", "\"micro\":" + std::to_string(m));
      loss_sum += model_.forward_loss(micro_batches[m].tokens,
                                      micro_batches[m].targets);
    }
    const auto t1 = Clock::now();
    {
      ZI_TRACE_SPAN("engine", "bwd", "\"micro\":" + std::to_string(m));
      // Weighted ranks: this rank's loss weight (its share of the global
      // batch) replaces the uniform 1/world factor. The legacy expression
      // is kept verbatim when no weight is set so uniform trajectories stay
      // bit-identical.
      const float back_scale =
          loss_weight_ > 0.0
              ? static_cast<float>(static_cast<double>(cur_scale) *
                                   loss_weight_ /
                                   static_cast<double>(num_micro))
              : cur_scale / (world * num_micro);
      model_.backward_loss(back_scale);
      if (coordinator_ == nullptr) {
        reduce_replicated_grads(/*accumulate=*/m > 0);
      }
    }
    const auto t2 = Clock::now();
    st.fwd_seconds += seconds(t0, t1);
    st.bwd_seconds += seconds(t1, t2);
  }
  if (coordinator_ != nullptr) coordinator_->set_grad_accumulation(false);
  st.local_loss = static_cast<float>(loss_sum / num_micro);

  const bool overflow = comm_.allreduce_or(driver_.local_overflow());
  st.global_loss =
      loss_weight_ > 0.0
          ? static_cast<float>(comm_.allreduce_sum_scalar(
                static_cast<double>(st.local_loss) * loss_weight_))
          : static_cast<float>(comm_.allreduce_sum_scalar(st.local_loss) /
                               comm_.size());
  st.skipped = scaler_.update(overflow);
  if (st.skipped) {
    if (MetricsSink::enabled()) {
      emit_step_report(st, seconds(step_t0, Clock::now()));
    }
    return st;
  }

  float clip = 1.0f;
  if (config_.max_grad_norm > 0.0f) {
    const double local = driver_.local_grad_sqnorm(cur_scale);
    const double global = config_.optimizer_partitioned()
                              ? comm_.allreduce_sum_scalar(local)
                              : local;
    st.grad_norm = std::sqrt(global);
    clip = clip_coefficient(global, config_.max_grad_norm);
  }

  ++opt_step_;
  ZI_TRACE_SPAN("engine", "opt", "\"opt_step\":" + std::to_string(opt_step_));
  const auto opt_t0 = Clock::now();
  // Stage 3 writes the updated fp16 shards straight back to their tier;
  // full parameters are re-gathered on demand next iteration. Otherwise the
  // updated shards are allgathered into whole parameters: stages 0-2
  // rebuild their replicas, the broadcast baseline writes each back on its
  // owning rank.
  const bool sharded = coordinator_ != nullptr && !store_.broadcast_mode();
  driver_.step(
      opt_step_, cur_scale, clip,
      sharded ? OptimizerDriver::UpdatedFp16Fn()
              : [&](Parameter* p, std::span<const half> shard) {
                  const std::vector<half> full = unshard(
                      store_.opt_spec(p),
                      std::vector<half>(shard.begin(), shard.end()));
                  if (local_store_ != nullptr) {
                    std::copy(full.begin(), full.end(),
                              local_store_->fp16(p).data<half>());
                  } else if (store_.param_owner(p) == comm_.rank()) {
                    store_.store_param_full(p, full);
                  }
                });
  if (coordinator_ != nullptr) coordinator_->end_iteration();
  st.opt_seconds = seconds(opt_t0, Clock::now());
  if (MetricsSink::enabled()) {
    emit_step_report(st, seconds(step_t0, Clock::now()));
  }
  return st;
}

void ZeroEngine::emit_step_report(const StepStats& st, double step_seconds) {
  auto delta = [](std::uint64_t now, std::uint64_t& base) {
    const std::uint64_t d = now - base;
    base = now;
    return d;
  };
  auto rload = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };

  StepReport r;
  r.step = step_;
  r.rank = comm_.rank();
  r.world = comm_.size();
  r.loss = st.global_loss;
  r.skipped = st.skipped;
  r.step_seconds = step_seconds;
  r.fwd_seconds = st.fwd_seconds;
  r.bwd_seconds = st.bwd_seconds;
  r.opt_seconds = st.opt_seconds;

  const CommTraffic& t = comm_.traffic();
  r.allgather_bytes = delta(rload(t.allgather_bytes),
                            metrics_base_.allgather_bytes);
  r.reduce_scatter_bytes = delta(rload(t.reduce_scatter_bytes),
                                 metrics_base_.reduce_scatter_bytes);
  r.broadcast_bytes = delta(rload(t.broadcast_bytes),
                            metrics_base_.broadcast_bytes);
  r.allreduce_bytes = delta(rload(t.allreduce_bytes),
                            metrics_base_.allreduce_bytes);
  r.collectives = delta(rload(t.collectives), metrics_base_.collectives);
  r.barriers = delta(rload(t.barriers), metrics_base_.barriers);

  const AioEngine::Stats aio = res_.aio().stats();
  r.aio_bytes_read = delta(aio.bytes_read, metrics_base_.aio_bytes_read);
  r.aio_bytes_written = delta(aio.bytes_written,
                              metrics_base_.aio_bytes_written);
  r.aio_requests = delta(aio.requests, metrics_base_.aio_requests);
  r.aio_retries = delta(aio.retries, metrics_base_.aio_retries);

  if (coordinator_ != nullptr) {
    const ParamCoordinator::Stats& cs = coordinator_->stats();
    r.fetches = delta(cs.fetches, metrics_base_.fetches);
    r.releases = delta(cs.releases, metrics_base_.releases);
    r.prefetches_issued = delta(cs.prefetches_issued,
                                metrics_base_.prefetches_issued);
    r.prefetch_hits = delta(cs.prefetch_hits, metrics_base_.prefetch_hits);
    r.prefetch_drops = delta(cs.prefetch_drops, metrics_base_.prefetch_drops);
    r.prefetch_hit_rate =
        r.prefetches_issued > 0
            ? static_cast<double>(r.prefetch_hits) /
                  static_cast<double>(r.prefetches_issued)
            : 0.0;
    r.grads_reduced = delta(cs.grads_reduced, metrics_base_.grads_reduced);
    r.fetch_seconds = cs.fetch_seconds - metrics_base_.fetch_seconds;
    metrics_base_.fetch_seconds = cs.fetch_seconds;
    r.reduce_seconds = cs.reduce_seconds - metrics_base_.reduce_seconds;
    metrics_base_.reduce_seconds = cs.reduce_seconds;
  }

  const DataMover::Stats mv = res_.mover().stats();
  auto route_delta = [&](Route route) {
    const auto i = static_cast<std::size_t>(route);
    return delta(mv.routes[i].bytes, metrics_base_.move_route_bytes[i]);
  };
  r.move_gpu_fetch_bytes = route_delta(Route::kGpuFetch);
  r.move_gpu_spill_bytes = route_delta(Route::kGpuSpill);
  r.move_cpu_fetch_bytes = route_delta(Route::kCpuFetch);
  r.move_cpu_spill_bytes = route_delta(Route::kCpuSpill);
  r.move_nvme_fetch_bytes = route_delta(Route::kNvmeFetch);
  r.move_nvme_spill_bytes = route_delta(Route::kNvmeSpill);
  r.move_kv_fetch_bytes = route_delta(Route::kKvFetch);
  r.move_kv_spill_bytes = route_delta(Route::kKvSpill);
  r.move_transfers = delta(mv.total_transfers(), metrics_base_.move_transfers);
  r.move_wait_seconds = mv.total_seconds() - metrics_base_.move_wait_seconds;
  metrics_base_.move_wait_seconds = mv.total_seconds();
  r.staged_pinned = delta(mv.staged_pinned, metrics_base_.staged_pinned);
  r.staged_heap = delta(mv.staged_heap, metrics_base_.staged_heap);

  r.sched_preemptions =
      delta(mv.sched.preemptions, metrics_base_.sched_preemptions);
  r.sched_latency_wait_seconds =
      static_cast<double>(delta(
          mv.sched.queue_ns[static_cast<std::size_t>(TransferClass::kLatency)],
          metrics_base_.sched_queue_ns[0])) *
      1e-9;
  r.sched_bulk_wait_seconds =
      static_cast<double>(delta(
          mv.sched.queue_ns[static_cast<std::size_t>(TransferClass::kBulk)],
          metrics_base_.sched_queue_ns[1])) *
      1e-9;

  // GPU bytes come from the arena, which every GPU-resident byte passes
  // through; the accountant misses gathered parameters and gradient
  // buffers. The host tiers come from the accountant.
  r.gpu_used = res_.gpu().used();
  r.gpu_peak = res_.gpu().stats().peak_used;
  const MemoryAccountant& acct = res_.accountant();
  r.cpu_used = acct.used(Tier::kCpu);
  r.cpu_peak = acct.peak(Tier::kCpu);
  r.nvme_used = acct.used(Tier::kNvme);
  r.nvme_peak = acct.peak(Tier::kNvme);
  r.pinned_blocked = res_.pinned().stats().blocked_acquires;

  r.comm_aborts = comm_abort_count();
  r.elastic_restarts = elastic_restart_count();
  // True max heartbeat age over the step, not a point sample: a gap that
  // both opened and closed since the last report lives only in the
  // WorldHealth max-gap watermark, so take the larger of the currently open
  // gap and any watermark growth since the previous emit.
  WorldHealth& health = comm_.health();
  const int hranks = health.num_ranks();
  if (metrics_base_.hb_gap_base.size() != static_cast<std::size_t>(hranks)) {
    metrics_base_.hb_gap_base.assign(static_cast<std::size_t>(hranks), 0.0);
  }
  double worst_age = 0.0;
  for (int hr = 0; hr < hranks; ++hr) {
    const double watermark = health.max_heartbeat_gap_ms(hr);
    double age = health.heartbeat_age_ms(hr);
    if (watermark > metrics_base_.hb_gap_base[static_cast<std::size_t>(hr)]) {
      age = std::max(age, watermark);
    }
    metrics_base_.hb_gap_base[static_cast<std::size_t>(hr)] = watermark;
    worst_age = std::max(worst_age, age);
  }
  r.heartbeat_max_age_ms = worst_age;
  r.step_ewma_ms = health.step_ewma_s(comm_.global_rank()) * 1e3;
  r.straggler_rank = health.straggler_rank();

  MetricsSink::instance().write(r);
}

float ZeroEngine::eval_loss(std::span<const std::int32_t> tokens,
                            std::span<const std::int32_t> targets) {
  if (coordinator_ != nullptr) coordinator_->set_eval_mode(true);
  const float local = model_.forward_loss(tokens, targets);
  if (coordinator_ != nullptr) {
    coordinator_->set_eval_mode(false);
    coordinator_->end_iteration();  // release anything persistence kept
  }
  return static_cast<float>(comm_.allreduce_sum_scalar(local) / comm_.size());
}

void ZeroEngine::reduce_replicated_grads(bool accumulate) {
  // Stages 0-2: gradients were accumulated in full fp32 buffers; cast to
  // fp16 and reduce. Stage 2 reduce-scatters (partitioned gradients);
  // stages 0-1 allreduce and keep the slice the optimizer owns. The fp16
  // rounding and rank-order fp32 accumulation match the stage-3 path
  // bit-for-bit.
  std::vector<half> padded;
  std::vector<half> shard;
  for (Parameter* p : local_store_->params()) {
    const ShardSpec& spec = store_.opt_spec(p);
    padded.assign(static_cast<std::size_t>(spec.padded_numel()), half(0.0f));
    floats_to_halves(p->grad_tensor().span<float>(),
                     std::span<half>(padded.data(),
                                     static_cast<std::size_t>(p->numel())));
    shard.resize(static_cast<std::size_t>(spec.shard_elems));
    if (config_.grads_partitioned()) {
      comm_.reduce_scatter_sum<half>(padded, shard);
    } else {
      comm_.allreduce_sum<half>(padded);
      extract_shard_fp16(padded, spec,
                         spec.world == 1 ? 0 : comm_.rank(), shard);
    }
    if (accumulate) {
      store_.accumulate_grad_shard(p, shard);
    } else {
      store_.store_grad_shard(p, shard);
    }
  }
}

// ---------------------------------------------------------------------------
// Universal checkpointing.
//
// Format (little-endian, one file):
//   u64 magic | u64 version | i64 num_params | i64 step | i64 opt_step
//   f32 scale | i32 steps_since_backoff | i64 skipped | i64 good
//   per parameter, in id order:
//     i64 numel | fp16 params[numel] | f32 master[numel]
//     | f32 momentum[numel] | f32 variance[numel]
//
// Values are stored UNPARTITIONED, so a checkpoint round-trips across any
// (stage, placement, world) combination.

namespace {
constexpr std::uint64_t kCkptMagic = 0x5A49494E46434B50ull;  // "ZIINFCKP"
constexpr std::uint64_t kCkptVersion = 1;

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
void append_span(std::vector<std::byte>& out, std::span<const T> v) {
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  out.insert(out.end(), p, p + v.size_bytes());
}

class CkptReader {
 public:
  explicit CkptReader(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}
  template <typename T>
  T read_pod() {
    ZI_CHECK_MSG(off_ + sizeof(T) <= bytes_.size(), "truncated checkpoint");
    T v;
    std::memcpy(&v, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> read_array(std::size_t count) {
    ZI_CHECK_MSG(off_ + count * sizeof(T) <= bytes_.size(),
                 "truncated checkpoint");
    std::vector<T> v(count);
    std::memcpy(v.data(), bytes_.data() + off_, count * sizeof(T));
    off_ += count * sizeof(T);
    return v;
  }

 private:
  std::vector<std::byte> bytes_;
  std::size_t off_ = 0;
};
}  // namespace

std::vector<half> ZeroEngine::gather_full_fp16(Parameter* p) {
  if (local_store_ != nullptr) {
    const Tensor& t = local_store_->fp16(p);
    return {t.data<half>(), t.data<half>() + t.numel()};
  }
  if (store_.broadcast_mode()) {
    std::vector<half> full(static_cast<std::size_t>(p->numel()));
    if (store_.param_owner(p) == comm_.rank()) {
      store_.load_param_full(p, full);
    }
    comm_.broadcast<half>(full, store_.param_owner(p));
    return full;
  }
  const ShardSpec& spec = store_.param_spec(p);
  std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
  store_.load_param_shard(p, shard);
  return unshard(spec, std::move(shard));
}

std::vector<float> ZeroEngine::gather_full_f32(Parameter* p,
                                               const TierSlice& shard_buf) {
  const ShardSpec& spec = store_.opt_spec(p);
  std::vector<float> shard(static_cast<std::size_t>(spec.shard_elems));
  shard_buf.load(std::as_writable_bytes(std::span(shard)));
  return unshard(spec, std::move(shard));
}

template <typename T>
std::vector<T> ZeroEngine::unshard(const ShardSpec& spec,
                                   std::vector<T> shard) {
  if (spec.world > 1) {
    std::vector<T> padded(static_cast<std::size_t>(spec.padded_numel()));
    comm_.allgather<T>(shard, padded);
    compact_gathered<T>(spec, padded);  // weighted slots -> flat layout
    shard = std::move(padded);
  }
  shard.resize(static_cast<std::size_t>(spec.numel));
  return shard;
}

void ZeroEngine::save_checkpoint(const std::string& path) {
  const auto params = model_.module().all_parameters();
  std::vector<std::byte> blob;
  {
    append_pod(blob, kCkptMagic);
    append_pod(blob, kCkptVersion);
    append_pod(blob, static_cast<std::int64_t>(params.size()));
    append_pod(blob, step_);
    append_pod(blob, opt_step_);
    const auto snap = scaler_.snapshot();
    append_pod(blob, snap.scale);
    append_pod(blob, static_cast<std::int32_t>(snap.steps_since_backoff));
    append_pod(blob, snap.skipped);
    append_pod(blob, snap.good);
  }
  // Assembly is collective (allgathers); only rank 0 keeps/writes the blob.
  for (Parameter* p : params) {
    const std::vector<half> fp16 = gather_full_fp16(p);
    const std::vector<float> master = gather_full_f32(p, store_.master(p));
    const std::vector<float> momentum =
        gather_full_f32(p, store_.momentum(p));
    const std::vector<float> variance =
        gather_full_f32(p, store_.variance(p));
    if (comm_.rank() == 0) {
      append_pod(blob, p->numel());
      append_span<half>(blob, fp16);
      append_span<float>(blob, master);
      append_span<float>(blob, momentum);
      append_span<float>(blob, variance);
    }
  }
  if (comm_.rank() == 0) {
    // Atomic protocol (ckpt_io): tmp + fsync + rename, checksum manifest as
    // the commit point. A crash mid-save never clobbers the previous
    // checkpoint at `path`.
    write_checkpoint_file(res_.aio(), path, blob);
  }
  comm_.barrier();  // the file is complete before anyone proceeds
}

void ZeroEngine::load_checkpoint(const std::string& path) {
  comm_.barrier();
  // Every rank reads and verifies independently; corruption throws
  // CheckpointCorruptionError before any engine state is touched.
  CkptReader reader(read_checkpoint_file(res_.aio(), path));

  ZI_CHECK_MSG(reader.read_pod<std::uint64_t>() == kCkptMagic,
               "not a ZeRO-Infinity checkpoint: " << path);
  ZI_CHECK_MSG(reader.read_pod<std::uint64_t>() == kCkptVersion,
               "unsupported checkpoint version");
  const auto params = model_.module().all_parameters();
  const auto num = reader.read_pod<std::int64_t>();
  ZI_CHECK_MSG(num == static_cast<std::int64_t>(params.size()),
               "checkpoint has " << num << " params, model has "
                                 << params.size());
  step_ = reader.read_pod<std::int64_t>();
  opt_step_ = reader.read_pod<std::int64_t>();
  DynamicLossScaler::Snapshot snap;
  snap.scale = reader.read_pod<float>();
  snap.steps_since_backoff = reader.read_pod<std::int32_t>();
  snap.skipped = reader.read_pod<std::int64_t>();
  snap.good = reader.read_pod<std::int64_t>();
  scaler_.restore(snap);

  if (coordinator_ != nullptr) coordinator_->end_iteration();
  std::vector<float> f32;
  for (Parameter* p : params) {
    const auto numel = reader.read_pod<std::int64_t>();
    ZI_CHECK_MSG(numel == p->numel(),
                 "shape mismatch for " << p->name() << ": checkpoint "
                                       << numel << " vs model "
                                       << p->numel());
    const auto n = static_cast<std::size_t>(numel);
    const std::vector<half> fp16 = reader.read_array<half>(n);
    const std::vector<float> master = reader.read_array<float>(n);
    const std::vector<float> momentum = reader.read_array<float>(n);
    const std::vector<float> variance = reader.read_array<float>(n);

    // fp16 parameters: this rank's slice (stage 3) or the full replica.
    if (local_store_ != nullptr) {
      std::copy(fp16.begin(), fp16.end(),
                local_store_->fp16(p).data<half>());
    } else if (store_.broadcast_mode()) {
      if (store_.param_owner(p) == comm_.rank()) {
        store_.store_param_full(p, fp16);
      }
    } else {
      // extract_shard_fp16 slices the flat checkpoint tensor directly
      // (uniform or weighted layout alike) and zero-fills the shard tail.
      const ShardSpec& pspec = store_.param_spec(p);
      std::vector<half> shard(static_cast<std::size_t>(pspec.shard_elems));
      extract_shard_fp16(fp16, pspec, comm_.rank(), shard);
      store_.store_param_shard_async(p, shard).wait();
    }

    // Optimizer state: this rank's opt-spec slice.
    const ShardSpec& ospec = store_.opt_spec(p);
    const int orank = ospec.world == 1 ? 0 : comm_.rank();
    auto store_slice = [&](const std::vector<float>& full, TierSlice buf) {
      f32.assign(static_cast<std::size_t>(ospec.shard_elems), 0.0f);
      const std::int64_t valid = ospec.valid_elems(orank);
      for (std::int64_t i = 0; i < valid; ++i) {
        f32[static_cast<std::size_t>(i)] =
            full[static_cast<std::size_t>(ospec.begin(orank) + i)];
      }
      buf.store(std::as_bytes(std::span(f32)));
    };
    store_slice(master, store_.master(p));
    store_slice(momentum, store_.momentum(p));
    store_slice(variance, store_.variance(p));
  }
  comm_.barrier();
}

std::string ZeroEngine::memory_summary() const {
  const DeviceArena& gpu = res_.gpu();
  return res_.accountant().summary(
      TierBytes{gpu.used(), gpu.stats().peak_used});
}

}  // namespace zi
