#include "core/optimizer_driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/half.hpp"
#include "optim/adam.hpp"
#include "tensor/ops.hpp"

namespace zi {

namespace {
// Gradient elements widened per block in local_grad_sqnorm.
constexpr std::size_t kSqnormBlock = 1024;
}  // namespace

OptimizerDriver::OptimizerDriver(ModelStateStore& store,
                                 const EngineConfig& config)
    : store_(store),
      config_(config),
      chunk_elems_(config.optimizer_chunk_elems) {
  ZI_CHECK(chunk_elems_ > 0);
  for (Parameter* p : store_.params()) {
    segments_.push_back(
        {p, store_.opt_offset(p), store_.opt_spec(p).shard_elems});
  }
  if (store_.optimizer_tier() == Tier::kNvme) {
    const auto cap =
        static_cast<std::size_t>(std::min(chunk_elems_, store_.opt_elems()));
    for (ChunkBuf& b : pipeline_.buffers()) {
      for (std::vector<float>& v : b.state) v.resize(cap);
      b.grad16.resize(cap);
      b.updated16.resize(cap);
    }
  }
}

bool OptimizerDriver::local_overflow() const {
  std::vector<half> shard;
  for (const Segment& s : segments_) {
    shard.resize(static_cast<std::size_t>(s.elems));
    store_.load_grad_shard(s.p, shard);
    if (!all_finite(shard)) return true;
  }
  return false;
}

double OptimizerDriver::local_grad_sqnorm(float grad_scale) const {
  const double inv = 1.0 / static_cast<double>(grad_scale);
  double acc = 0.0;
  std::vector<half> shard;
  std::vector<float> widened(kSqnormBlock);
  for (const Segment& s : segments_) {
    shard.resize(static_cast<std::size_t>(s.elems));
    store_.load_grad_shard(s.p, shard);
    // Padding elements are exact zeros and contribute nothing. Widened a
    // block at a time; the double sum keeps element order.
    for (std::size_t lo = 0; lo < shard.size(); lo += kSqnormBlock) {
      const std::size_t n = std::min(kSqnormBlock, shard.size() - lo);
      halves_to_floats(std::span<const half>(shard).subspan(lo, n),
                       {widened.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        const double g = static_cast<double>(widened[i]) * inv;
        acc += g * g;
      }
    }
  }
  return acc;
}

void OptimizerDriver::step(std::int64_t step_num, float grad_scale,
                           float clip_coef, const UpdatedFp16Fn& on_updated) {
  ++stats_.steps;
  if (segments_.empty()) return;
  if (store_.optimizer_tier() == Tier::kNvme) {
    ZI_CHECK_MSG(on_updated == nullptr,
                 "NVMe optimizer state requires partitioned parameters");
    step_chunked_nvme(step_num, grad_scale, clip_coef);
  } else {
    step_direct(step_num, grad_scale, clip_coef, on_updated);
  }
}

void OptimizerDriver::step_direct(std::int64_t step_num, float grad_scale,
                                  float clip_coef,
                                  const UpdatedFp16Fn& on_updated) {
  auto* master = reinterpret_cast<float*>(store_.master_region().data());
  auto* momentum = reinterpret_cast<float*>(store_.momentum_region().data());
  auto* variance = reinterpret_cast<float*>(store_.variance_region().data());
  ZI_CHECK_MSG(master != nullptr, "optimizer state not addressable");
  for (const Segment& s : segments_) {
    const auto n = static_cast<std::size_t>(s.elems);
    const auto at = static_cast<std::size_t>(s.offset);
    grad16_.resize(n);
    updated16_.resize(n);
    store_.load_grad_shard(s.p, grad16_);
    // fp16 gradient in, fp16 write-back of the updated shard out.
    fused_adam_step(config_.adam, step_num, {master + at, n},
                    {momentum + at, n}, {variance + at, n}, grad16_,
                    updated16_, grad_scale, clip_coef);
    if (on_updated) {
      on_updated(s.p, updated16_);
    } else {
      store_.store_param_shard_async(s.p, updated16_).wait();
    }
  }
}

void OptimizerDriver::step_chunked_nvme(std::int64_t step_num,
                                        float grad_scale, float clip_coef) {
  const std::int64_t total = store_.opt_elems();
  const std::int64_t chunk = chunk_elems_;
  const std::array<TierBuffer*, 3> regions{&store_.master_region(),
                                           &store_.momentum_region(),
                                           &store_.variance_region()};
  // Chunk c covers region elements [c * chunk, c * chunk + n).
  auto elems_of = [&](std::int64_t c) {
    return static_cast<std::size_t>(std::min(chunk, total - c * chunk));
  };
  auto state_of = [](ChunkBuf& b, std::size_t k, std::size_t n) {
    return std::span<float>(b.state[k].data(), n);
  };
  auto byte_offset = [&](std::int64_t c) {
    return static_cast<std::uint64_t>(c * chunk) * sizeof(float);
  };
  // Calls fn(p, first element in p's shard, first element in the chunk,
  // elements) for each parameter segment of chunk c, in region order.
  auto for_each_segment = [&](std::int64_t c, auto&& fn) {
    const std::int64_t lo = c * chunk;
    const std::int64_t hi = lo + static_cast<std::int64_t>(elems_of(c));
    auto it = std::upper_bound(segments_.begin(), segments_.end(), lo,
                               [](std::int64_t v, const Segment& s) {
                                 return v < s.offset + s.elems;
                               });
    for (; it != segments_.end() && it->offset < hi; ++it) {
      const std::int64_t b = std::max(lo, it->offset);
      const std::int64_t e = std::min(hi, it->offset + it->elems);
      fn(it->p, b - it->offset, static_cast<std::size_t>(b - lo),
         static_cast<std::size_t>(e - b));
    }
  };

  // DoubleBufferPipeline owns the reuse-safety and quiescence invariants.
  // With overlap disabled, the same loop degenerates to sequential
  // load → compute → store (the ablation baseline).
  pipeline_.run(
      (total + chunk - 1) / chunk, config_.overlap_transfers,
      /*issue_load=*/
      [&](std::int64_t c, ChunkBuf& b) {
        const std::size_t n = elems_of(c);
        // The pipeline blocks on these at the next wait_load tick: latency
        // class, so they overtake the previous chunk's bulk write-backs.
        for (std::size_t k = 0; k < regions.size(); ++k) {
          b.loads.push_back(regions[k]->load_async(
              std::as_writable_bytes(state_of(b, k, n)), byte_offset(c),
              TransferClass::kLatency));
        }
      },
      /*wait_load=*/[](ChunkBuf& b) { wait_all(b.loads); },
      /*compute=*/
      [&](std::int64_t c, ChunkBuf& b) {
        const std::size_t n = elems_of(c);
        // Gradients from the gradient tier, chunked like the state so CPU
        // staging memory stays bounded.
        for_each_segment(c, [&](Parameter* p, std::int64_t from,
                                std::size_t at, std::size_t len) {
          store_.load_grad_shard(p, {b.grad16.data() + at, len}, from);
        });
        fused_adam_step(config_.adam, step_num, state_of(b, 0, n),
                        state_of(b, 1, n), state_of(b, 2, n),
                        {b.grad16.data(), n}, {b.updated16.data(), n},
                        grad_scale, clip_coef);
        ++stats_.chunks_pipelined;

        // Write-backs drain in the background: bulk class (the starvation
        // bound guarantees they still complete under fetch pressure).
        for (std::size_t k = 0; k < regions.size(); ++k) {
          b.stores.push_back(regions[k]->store_async(
              std::as_bytes(state_of(b, k, n)), byte_offset(c),
              TransferClass::kBulk));
        }
        for_each_segment(c, [&](Parameter* p, std::int64_t from,
                                std::size_t at, std::size_t len) {
          b.stores.push_back(store_.store_param_shard_async(
              p, {b.updated16.data() + at, len}, from));
        });
      },
      /*wait_store=*/[](ChunkBuf& b) { wait_all(b.stores); });
}

}  // namespace zi
