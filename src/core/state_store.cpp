#include "core/state_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/half.hpp"

namespace zi {

namespace {

// Gradient elements widened per block in accumulate_grad_shard.
constexpr std::size_t kAccumulateBlock = 1024;

}  // namespace

ModelStateStore::ModelStateStore(RankResources& res,
                                 const EngineConfig& config,
                                 const std::vector<Parameter*>& params,
                                 int rank, int world)
    : res_(res), config_(config), params_(params), rank_(rank), world_(world) {
  entries_.resize(params_.size());
  for (Parameter* p : params_) {
    ZI_CHECK_MSG(p->id() >= 0 &&
                     static_cast<std::size_t>(p->id()) < entries_.size(),
                 "parameter ids not finalized for " << p->name());
    Entry& e = entries_[static_cast<std::size_t>(p->id())];
    // rank_weights (validated by the engine: stage 3 + bandwidth-centric
    // only) skews both shard layouts; empty weights reproduce the uniform
    // layout exactly.
    e.param_spec = make_shard_spec(p->numel(), world_, config_.rank_weights);
    e.opt_spec =
        config_.optimizer_partitioned()
            ? make_shard_spec(p->numel(), world_, config_.rank_weights)
            : make_shard_spec(p->numel(), 1);
    e.opt_offset = opt_elems_;
    opt_elems_ += e.opt_spec.shard_elems;
  }

  // Forward-only streaming (inference_only): no optimizer will ever run,
  // so the fp32 regions and the fp16 gradient shards are never allocated —
  // the store holds just the fp16 parameter shards below. The fp16 init is
  // identical either way, so serving weights match the training
  // initialization bit-for-bit.
  if (!config_.inference_only && opt_elems_ > 0) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(opt_elems_) * sizeof(float);
    for (auto* region : {&master_, &momentum_, &variance_}) {
      *region = std::make_unique<TierBuffer>(
          res_, config_.optimizer_placement, bytes);
    }
  }

  std::vector<half> h16_scratch;
  std::vector<float> f32_scratch;
  for (Parameter* p : params_) {
    Entry& e = entries_[static_cast<std::size_t>(p->id())];
    const auto shard_n = static_cast<std::size_t>(e.opt_spec.shard_elems);
    if (!config_.inference_only) {
      // Partitioned init: the fp16 values this rank would see after
      // rounding. Master weights are initialized FROM the fp16-rounded
      // values so every stage/placement combination starts from
      // bit-identical state.
      const int opt_rank = config_.optimizer_partitioned() ? rank_ : 0;
      h16_scratch.resize(shard_n);
      init_shard_fp16(*p, e.opt_spec, opt_rank, h16_scratch);
      f32_scratch.resize(shard_n);
      halves_to_floats(h16_scratch, f32_scratch);
      const auto f32_bytes = std::as_bytes(std::span(f32_scratch));
      master(p).store(f32_bytes);
      std::fill(f32_scratch.begin(), f32_scratch.end(), 0.0f);
      momentum(p).store(f32_bytes);
      variance(p).store(f32_bytes);

      e.grad_fp16 = std::make_unique<TierBuffer>(res_, config_.grad_placement,
                                                 shard_n * sizeof(half));
    }

    if (config_.params_partitioned()) {
      if (config_.bandwidth_centric) {
        // Bandwidth-centric: this rank persists its 1/dp slice. Stage 3
        // partitions the optimizer alike, so when training h16_scratch
        // already holds this slice: each value is drawn once.
        const auto pshard_n =
            static_cast<std::size_t>(e.param_spec.shard_elems);
        if (config_.inference_only) {
          h16_scratch.resize(pshard_n);
          init_shard_fp16(*p, e.param_spec, rank_, h16_scratch);
        }
        e.param_fp16 = std::make_unique<TierBuffer>(
            res_, config_.param_placement, pshard_n * sizeof(half));
        e.param_fp16->store(std::as_bytes(std::span(h16_scratch)));
      } else if (param_owner(p) == rank_) {
        // Broadcast baseline: the owner persists the whole parameter.
        const auto n = static_cast<std::size_t>(p->numel());
        h16_scratch.resize(n);
        const ShardSpec whole = make_shard_spec(p->numel(), 1);
        init_shard_fp16(*p, whole, 0, h16_scratch);
        e.param_fp16 = std::make_unique<TierBuffer>(
            res_, config_.param_placement, n * sizeof(half));
        e.param_fp16->store(std::as_bytes(std::span(h16_scratch)));
      }
    }
  }
}

const ModelStateStore::Entry& ModelStateStore::entry(const Parameter* p) const {
  ZI_CHECK(p != nullptr && p->id() >= 0 &&
           static_cast<std::size_t>(p->id()) < entries_.size());
  return entries_[static_cast<std::size_t>(p->id())];
}

const ShardSpec& ModelStateStore::param_spec(const Parameter* p) const {
  return entry(p).param_spec;
}

int ModelStateStore::param_owner(const Parameter* p) const {
  return p->id() % world_;
}

TierBuffer& ModelStateStore::param_full_buffer(const Parameter* p,
                                               std::size_t elems) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.param_fp16 != nullptr && broadcast_mode(),
               "no whole-parameter copy of " << p->name() << " on rank "
                                             << rank_);
  ZI_CHECK(static_cast<std::int64_t>(elems) == p->numel());
  return *e.param_fp16;
}

void ModelStateStore::load_param_full(const Parameter* p,
                                      std::span<half> dst) const {
  param_full_buffer(p, dst.size()).load(std::as_writable_bytes(dst));
}

TransferHandle ModelStateStore::load_param_full_async(
    const Parameter* p, std::span<half> dst, TransferClass cls) const {
  return param_full_buffer(p, dst.size())
      .load_async(std::as_writable_bytes(dst), 0, cls);
}

void ModelStateStore::store_param_full(const Parameter* p,
                                       std::span<const half> src) {
  param_full_buffer(p, src.size()).store(std::as_bytes(src));
}

const ShardSpec& ModelStateStore::opt_spec(const Parameter* p) const {
  return entry(p).opt_spec;
}

TierBuffer& ModelStateStore::param_shard_buffer(const Parameter* p) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.param_fp16 != nullptr,
               "no parameter shard for " << p->name()
                                         << " (params not partitioned)");
  return *e.param_fp16;
}

TransferHandle ModelStateStore::load_param_shard_async(
    const Parameter* p, std::span<half> dst, TransferClass cls) const {
  return param_shard_buffer(p).load_async(std::as_writable_bytes(dst), 0, cls);
}

void ModelStateStore::load_param_shard(const Parameter* p,
                                       std::span<half> dst) const {
  param_shard_buffer(p).load(std::as_writable_bytes(dst));
}

TransferHandle ModelStateStore::store_param_shard_async(
    const Parameter* p, std::span<const half> src, std::int64_t elem_offset) {
  return param_shard_buffer(p).store_async(
      std::as_bytes(src),
      static_cast<std::uint64_t>(elem_offset) * sizeof(half));
}

TierBuffer& ModelStateStore::grad_buffer(const Parameter* p) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.grad_fp16 != nullptr,
               "no gradient shard for " << p->name()
                                        << " (inference_only store)");
  return *e.grad_fp16;
}

void ModelStateStore::store_grad_shard(const Parameter* p,
                                       std::span<const half> src) {
  grad_buffer(p).store(std::as_bytes(src));
}

void ModelStateStore::accumulate_grad_shard(const Parameter* p,
                                            std::span<const half> src) {
  TierBuffer& grad = grad_buffer(p);
  std::vector<half> current(src.size());
  grad.load(std::as_writable_bytes(std::span(current)));
  // current = half(float(current) + float(src)), widened a block at a time.
  std::vector<float> sum(kAccumulateBlock), term(kAccumulateBlock);
  for (std::size_t lo = 0; lo < src.size(); lo += kAccumulateBlock) {
    const std::size_t n = std::min(kAccumulateBlock, src.size() - lo);
    const std::span<half> cur = std::span<half>(current).subspan(lo, n);
    halves_to_floats(cur, {sum.data(), n});
    halves_to_floats(src.subspan(lo, n), {term.data(), n});
    for (std::size_t i = 0; i < n; ++i) sum[i] += term[i];
    floats_to_halves({sum.data(), n}, cur);
  }
  grad.store(std::as_bytes(std::span(current)));
}

void ModelStateStore::load_grad_shard(const Parameter* p, std::span<half> dst,
                                      std::int64_t elem_offset) const {
  grad_buffer(p).load(
      std::as_writable_bytes(dst),
      static_cast<std::uint64_t>(elem_offset) * sizeof(half));
}

TierBuffer& ModelStateStore::checked_region(TierBuffer* region) const {
  ZI_CHECK_MSG(region != nullptr,
               "no optimizer state on rank " << rank_
                                             << " (inference_only store)");
  return *region;
}

TierSlice ModelStateStore::slice(TierBuffer* region, const Parameter* p) const {
  const Entry& e = entry(p);
  return TierSlice(checked_region(region),
                   static_cast<std::uint64_t>(e.opt_offset) * sizeof(float),
                   static_cast<std::uint64_t>(e.opt_spec.shard_elems) *
                       sizeof(float));
}

}  // namespace zi
