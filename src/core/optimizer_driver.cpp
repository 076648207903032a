#include "core/optimizer_driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/half.hpp"
#include "move/pipeline.hpp"
#include "optim/adam.hpp"
#include "tensor/ops.hpp"

namespace zi {

namespace {
std::span<std::byte> bytes_of(std::span<float> s) {
  return {reinterpret_cast<std::byte*>(s.data()), s.size_bytes()};
}
std::span<const std::byte> cbytes_of(std::span<const float> s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
}
// Gradient elements widened per block in local_grad_sqnorm.
constexpr std::size_t kSqnormBlock = 1024;
}  // namespace

OptimizerDriver::OptimizerDriver(ModelStateStore& store, RankResources& res,
                                 Communicator& comm,
                                 const EngineConfig& config)
    : store_(store), res_(res), comm_(comm), config_(config) {
  ZI_CHECK(config_.optimizer_chunk_elems > 0);
}

bool OptimizerDriver::local_overflow() const {
  std::vector<half> shard;
  for (Parameter* p : store_.params()) {
    const ShardSpec& spec = store_.opt_spec(p);
    shard.resize(static_cast<std::size_t>(spec.shard_elems));
    store_.load_grad_shard(p, shard);
    if (!all_finite(shard)) return true;
  }
  return false;
}

double OptimizerDriver::local_grad_sqnorm(float grad_scale) const {
  const double inv = 1.0 / static_cast<double>(grad_scale);
  double acc = 0.0;
  std::vector<half> shard;
  std::vector<float> widened(kSqnormBlock);
  for (Parameter* p : store_.params()) {
    const ShardSpec& spec = store_.opt_spec(p);
    shard.resize(static_cast<std::size_t>(spec.shard_elems));
    store_.load_grad_shard(p, shard);
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
                           float clip_coef, bool write_param_shards,
                           const UpdatedFp16Fn& on_updated) {
  ++stats_.steps;
  for (Parameter* p : store_.params()) {
    if (store_.optimizer_tier() == Tier::kNvme) {
      ZI_CHECK_MSG(on_updated == nullptr,
                   "NVMe optimizer state requires partitioned parameters");
      step_chunked_nvme(p, step_num, grad_scale, clip_coef,
                        write_param_shards);
    } else {
      step_direct(p, step_num, grad_scale, clip_coef, write_param_shards,
                  on_updated);
    }
  }
}

void OptimizerDriver::step_direct(Parameter* p, std::int64_t step_num,
                                  float grad_scale, float clip_coef,
                                  bool write_param_shards,
                                  const UpdatedFp16Fn& on_updated) {
  const ShardSpec& spec = store_.opt_spec(p);
  const auto n = static_cast<std::size_t>(spec.shard_elems);

  std::vector<half> grad16(n);
  store_.load_grad_shard(p, grad16);

  float* master = reinterpret_cast<float*>(store_.master(p).data());
  float* momentum = reinterpret_cast<float*>(store_.momentum(p).data());
  float* variance = reinterpret_cast<float*>(store_.variance(p).data());
  ZI_CHECK_MSG(master != nullptr, "optimizer state for " << p->name()
                                                         << " not addressable");
  // fp16 gradient in, fp16 write-back of the updated shard out.
  std::vector<half> updated16(n);
  fused_adam_step(config_.adam, step_num, {master, n}, {momentum, n},
                  {variance, n}, grad16, updated16, grad_scale, clip_coef);
  ++stats_.direct_params;
  if (write_param_shards) {
    store_.store_param_shard_async(p, updated16).wait();
  }
  if (on_updated) on_updated(p, updated16);
}

void OptimizerDriver::step_chunked_nvme(Parameter* p, std::int64_t step_num,
                                        float grad_scale, float clip_coef,
                                        bool write_param_shards) {
  const ShardSpec& spec = store_.opt_spec(p);
  const std::int64_t total = spec.shard_elems;
  const std::int64_t chunk = config_.optimizer_chunk_elems;
  const std::int64_t num_chunks = (total + chunk - 1) / chunk;

  // Double-buffered pipeline (DoubleBufferPipeline owns the reuse-safety
  // and quiescence invariants): while chunk c computes, chunk c+1's state
  // reads and chunk c-1's write-backs are in flight (Sec. 5.2.2). With
  // overlap disabled, the same loop degenerates to sequential
  // load → compute → store (the ablation baseline).
  struct ChunkBuf {
    std::vector<float> master, momentum, variance;
    std::vector<half> grad16, updated16;
    TransferHandle load_m, load_mom, load_var;
    TransferHandle store_m, store_mom, store_var, store_p;
    std::int64_t elems = 0;
  };
  DoubleBufferPipeline<ChunkBuf> pipeline;
  for (auto& b : pipeline.buffers()) {
    const auto cap = static_cast<std::size_t>(std::min(chunk, total));
    b.master.resize(cap);
    b.momentum.resize(cap);
    b.variance.resize(cap);
    b.grad16.resize(cap);
    b.updated16.resize(cap);
  }

  pipeline.run(
      num_chunks, config_.overlap_transfers,
      /*issue_load=*/
      [&](std::int64_t c, ChunkBuf& b) {
        const std::int64_t lo = c * chunk;
        const std::int64_t n = std::min(chunk, total - lo);
        b.elems = n;
        const std::uint64_t byte_off =
            static_cast<std::uint64_t>(lo) * sizeof(float);
        const auto un = static_cast<std::size_t>(n);
        // The pipeline blocks on these at the next wait_load tick: latency
        // class, so they overtake the previous chunk's bulk write-backs.
        b.load_m = store_.master(p).load_async(
            bytes_of({b.master.data(), un}), byte_off, TransferClass::kLatency);
        b.load_mom = store_.momentum(p).load_async(
            bytes_of({b.momentum.data(), un}), byte_off,
            TransferClass::kLatency);
        b.load_var = store_.variance(p).load_async(
            bytes_of({b.variance.data(), un}), byte_off,
            TransferClass::kLatency);
      },
      /*wait_load=*/
      [](ChunkBuf& b) {
        b.load_m.wait();
        b.load_mom.wait();
        b.load_var.wait();
      },
      /*compute=*/
      [&](std::int64_t c, ChunkBuf& b) {
        const std::int64_t lo = c * chunk;
        const auto n = static_cast<std::size_t>(b.elems);
        // Gradient chunk from the gradient tier (chunked like the state so
        // CPU staging memory stays bounded).
        store_.load_grad_shard_chunk(p, {b.grad16.data(), n}, lo);
        fused_adam_step(config_.adam, step_num, {b.master.data(), n},
                        {b.momentum.data(), n}, {b.variance.data(), n},
                        {b.grad16.data(), n}, {b.updated16.data(), n},
                        grad_scale, clip_coef);
        ++stats_.chunks_pipelined;

        const std::uint64_t byte_off =
            static_cast<std::uint64_t>(lo) * sizeof(float);
        // Write-backs drain in the background: bulk class (the starvation
        // bound guarantees they still complete under fetch pressure).
        b.store_m = store_.master(p).store_async(
            cbytes_of({b.master.data(), n}), byte_off, TransferClass::kBulk);
        b.store_mom = store_.momentum(p).store_async(
            cbytes_of({b.momentum.data(), n}), byte_off, TransferClass::kBulk);
        b.store_var = store_.variance(p).store_async(
            cbytes_of({b.variance.data(), n}), byte_off, TransferClass::kBulk);
        if (write_param_shards) {
          b.store_p = store_.store_param_shard_async(
              p, std::span<const half>(b.updated16.data(), n), lo);
        }
      },
      /*wait_store=*/
      [](ChunkBuf& b) {
        b.store_m.wait();
        b.store_mom.wait();
        b.store_var.wait();
        b.store_p.wait();
      });
}

}  // namespace zi
