// End-to-end engine integration tests.
//
// The central claim under test: ZeRO partitioning and heterogeneous
// offloading are *exact* system transformations — every Table 2
// configuration (DDP, ZeRO-1/2/3, ZeRO-Offload, ZeRO-Infinity with CPU and
// NVMe placement, activation-checkpoint offload, chunked NVMe optimizer)
// trains the same model along a bit-identical loss trajectory, while only
// the memory placement changes.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>

#include "common/units.hpp"
#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "core/tiling.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

GptConfig tiny_model() {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.tie_embeddings = true;
  cfg.checkpoint_activations = true;
  return cfg;
}

// Deterministic per-(rank, step) synthetic batch: next-token prediction on
// a fixed periodic sequence with rank-dependent phase.
void make_batch(int rank, int step, const GptConfig& cfg, int batch,
                std::vector<std::int32_t>& tokens,
                std::vector<std::int32_t>& targets) {
  const std::int64_t n = batch * cfg.seq;
  tokens.resize(static_cast<std::size_t>(n));
  targets.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v = (rank * 31 + step * 7 + i * 3) %
                           (cfg.vocab - 1);
    tokens[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(v);
    targets[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>((v * 3 + 3) % (cfg.vocab - 1));
  }
}

struct RunResult {
  std::vector<float> losses;  // global mean loss per step
  std::uint64_t prefetch_hits = 0;
  std::uint64_t chunks_pipelined = 0;
  std::uint64_t gpu_peak = 0;
  std::uint64_t cpu_peak = 0;
  std::uint64_t nvme_peak = 0;
};

RunResult run_training(EngineConfig cfg, const GptConfig& model_cfg,
                       int world, int steps, int batch_per_rank,
                       const fs::path& dir, bool fixed_data = false) {
  cfg.nvme_dir = dir.string();
  RunResult result;
  result.losses.resize(static_cast<std::size_t>(steps));
  AioEngine aio;
  run_ranks(world, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    for (int s = 0; s < steps; ++s) {
      make_batch(comm.rank(), fixed_data ? 0 : s, model_cfg, batch_per_rank,
                 tokens, targets);
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0) {
        result.losses[static_cast<std::size_t>(s)] = st.global_loss;
      }
    }
    if (comm.rank() == 0) {
      if (engine.coordinator() != nullptr) {
        result.prefetch_hits = engine.coordinator()->stats().prefetch_hits;
      }
      result.chunks_pipelined = engine.optimizer().stats().chunks_pipelined;
      result.gpu_peak = engine.resources().gpu().stats().peak_used;
      const MemoryAccountant& acc = engine.resources().accountant();
      result.cpu_peak = acc.peak(Tier::kCpu);
      result.nvme_peak = acc.peak(Tier::kNvme);
    }
  });
  return result;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_engine_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// THE equality matrix: all Table 2 configurations, identical trajectories.

TEST_F(EngineTest, AllStrategiesProduceIdenticalTrainingTrajectories) {
  const GptConfig model_cfg = tiny_model();
  constexpr int kWorld = 4;
  constexpr int kSteps = 5;
  constexpr int kBatch = 2;

  std::map<std::string, EngineConfig> configs;
  configs["data_parallel"] = preset_data_parallel();
  configs["zero1"] = preset_zero1();
  configs["zero2"] = preset_zero2();
  configs["zero_offload"] = preset_zero_offload();
  configs["zero3"] = preset_zero3();
  configs["zero_inf_cpu"] = preset_zero_infinity_cpu();
  configs["zero_inf_nvme"] = preset_zero_infinity_nvme();
  // Extra variants exercising more of the placement matrix.
  {
    EngineConfig c = preset_zero_infinity_nvme();
    c.activation_placement = Placement::kNvme;
    c.optimizer_chunk_elems = 64;  // force many pipeline chunks
    configs["zero_inf_nvme_chunked_act_nvme"] = c;
  }
  {
    EngineConfig c = preset_zero3();
    c.overlap_transfers = false;
    c.prefetch_depth = 0;
    configs["zero3_no_overlap"] = c;
  }
  {
    // Every NVMe shard and optimizer-state transfer synchronous.
    EngineConfig c = preset_zero_infinity_nvme();
    c.overlap_transfers = false;
    configs["zero_inf_nvme_no_overlap"] = c;
  }
  {
    // Broadcast retrieval (Sec. 6.1's baseline): no fuzz seed draws it.
    EngineConfig c = preset_zero_infinity_cpu();
    c.bandwidth_centric = false;
    configs["zero_inf_cpu_broadcast"] = c;
  }

  std::map<std::string, RunResult> results;
  for (auto& [name, cfg] : configs) {
    results[name] =
        run_training(cfg, model_cfg, kWorld, kSteps, kBatch, dir_ / name);
  }

  const auto& reference = results.at("data_parallel").losses;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kSteps));
  for (const auto& [name, result] : results) {
    ASSERT_EQ(result.losses.size(), reference.size()) << name;
    for (std::size_t s = 0; s < reference.size(); ++s) {
      EXPECT_EQ(result.losses[s], reference[s])
          << name << " diverged from DDP at step " << s;
    }
  }

  // Table 2's placement ladder: each row moves more model state off the
  // GPU, so the GPU peak never rises down it. It falls at every rung but
  // two: ZeRO-1 and ZeRO-2 both accumulate full fp32 gradients through
  // backward, and Inf-CPU already left only the working set on the GPU.
  struct Rung {
    const char* from;
    const char* to;
    bool drops;
  };
  for (const Rung& r : {Rung{"data_parallel", "zero1", true},
                        Rung{"zero1", "zero2", false},
                        Rung{"zero2", "zero_offload", true},
                        Rung{"zero_offload", "zero3", true},
                        Rung{"zero3", "zero_inf_cpu", true},
                        Rung{"zero_inf_cpu", "zero_inf_nvme", false}}) {
    const std::uint64_t from = results.at(r.from).gpu_peak;
    const std::uint64_t to = results.at(r.to).gpu_peak;
    if (r.drops) {
      EXPECT_LT(to, from) << r.from << " -> " << r.to;
    } else {
      EXPECT_LE(to, from) << r.from << " -> " << r.to;
    }
  }
  // Host tiers hold bytes only on the rows that place state there: NVMe on
  // the Inf-NVMe rows, CPU on ZeRO-Offload and every Inf row.
  for (const auto& [name, r] : results) {
    const bool nvme = name.starts_with("zero_inf_nvme");
    const bool cpu = nvme || name == "zero_offload" ||
                     name.starts_with("zero_inf_cpu");
    EXPECT_EQ(r.nvme_peak > 0, nvme) << name << " nvme_peak " << r.nvme_peak;
    EXPECT_EQ(r.cpu_peak > 0, cpu) << name << " cpu_peak " << r.cpu_peak;
  }

  // The chunked-NVMe run really went through the pipeline.
  EXPECT_GT(results.at("zero_inf_nvme_chunked_act_nvme").chunks_pipelined, 0u);
  // Prefetching really happened for partitioned NVMe runs after iteration 1.
  EXPECT_GT(results.at("zero_inf_nvme").prefetch_hits, 0u);
  EXPECT_EQ(results.at("zero3_no_overlap").prefetch_hits, 0u);
  EXPECT_EQ(results.at("zero_inf_nvme_no_overlap").prefetch_hits, 0u);
}

// ---------------------------------------------------------------------------

TEST_F(EngineTest, LossDecreasesOverLongerRun) {
  GptConfig model_cfg = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.adam.lr = 1e-2f;
  cfg.loss_scale.init_scale = 1024.0f;
  const RunResult r =
      run_training(cfg, model_cfg, 2, 25, 2, dir_, /*fixed_data=*/true);
  // Average of the last 5 losses well below the first.
  float tail = 0.0f;
  for (int i = 0; i < 5; ++i) tail += r.losses[static_cast<std::size_t>(24 - i)];
  tail /= 5.0f;
  EXPECT_LT(tail, r.losses[0] * 0.8f);
}

TEST_F(EngineTest, WorksAcrossWorldSizes) {
  const GptConfig model_cfg = tiny_model();
  for (const int world : {1, 2, 3}) {
    EngineConfig cfg = preset_zero_infinity_cpu();
    const RunResult r =
        run_training(cfg, model_cfg, world, 3, 2, dir_ / std::to_string(world));
    EXPECT_GT(r.losses[0], 0.0f) << "world " << world;
    EXPECT_LT(r.losses[2], r.losses[0] * 1.2f) << "world " << world;
  }
}

TEST_F(EngineTest, OverflowSkipsStepAndBacksOffScale) {
  const GptConfig model_cfg = tiny_model();
  EngineConfig cfg = preset_zero3();
  cfg.nvme_dir = (dir_ / "overflow").string();
  // A loss scale at the fp16 ceiling guarantees overflow on step 1.
  cfg.loss_scale.init_scale = 1.0e8f;
  cfg.loss_scale.max_scale = 1.0e9f;

  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    make_batch(comm.rank(), 0, model_cfg, 2, tokens, targets);

    bool saw_skip = false;
    float last_loss = 0.0f;
    for (int s = 0; s < 30; ++s) {
      const auto st = engine.train_step(tokens, targets);
      if (st.skipped) saw_skip = true;
      if (!st.skipped) last_loss = st.global_loss;
    }
    EXPECT_TRUE(saw_skip);
    EXPECT_GT(engine.loss_scaler().skipped_steps(), 0);
    EXPECT_GT(engine.loss_scaler().good_steps(), 0);
    EXPECT_LT(engine.loss_scaler().scale(), 1.0e8f);  // backed off
    EXPECT_GT(last_loss, 0.0f);                       // eventually trained
  });
}

TEST_F(EngineTest, GradClippingKeepsTrajectoryFinite) {
  const GptConfig model_cfg = tiny_model();
  EngineConfig cfg = preset_zero_infinity_cpu();
  cfg.max_grad_norm = 0.5f;
  const RunResult r = run_training(cfg, model_cfg, 2, 5, 2, dir_);
  for (const float l : r.losses) {
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(r.losses.back(), r.losses.front() * 1.5f);
}

// The memory story of Fig. 6a in miniature: a model whose replicated DDP
// footprint exceeds "GPU memory" trains fine under ZeRO-Infinity on the
// same arenas, because model states moved to CPU/NVMe.
TEST_F(EngineTest, ZeroInfinityTrainsWhereDdpOoms) {
  GptConfig model_cfg = tiny_model();
  model_cfg.hidden = 64;
  model_cfg.layers = 4;
  model_cfg.heads = 4;

  // ~75K params → replicated DDP needs ~10 B/param GPU + optimizer state;
  // a 0.5 MiB arena cannot host it.
  EngineConfig ddp = preset_data_parallel();
  ddp.gpu_arena_bytes = 512 * kKiB;
  EXPECT_THROW(run_training(ddp, model_cfg, 2, 1, 1, dir_ / "ddp"),
               OutOfMemoryError);

  EngineConfig inf = preset_zero_infinity_nvme();
  inf.gpu_arena_bytes = 512 * kKiB;
  inf.nvme_capacity = 32 * kMiB;
  const RunResult r = run_training(inf, model_cfg, 2, 2, 1, dir_ / "inf");
  EXPECT_GT(r.losses[0], 0.0f);
  EXPECT_GT(r.gpu_peak, 0u);
  EXPECT_LE(r.gpu_peak, 512 * kKiB);
}

// Memory-centric tiling inside the full engine: tiled MLP linears train
// and reduce the gathered-parameter peak.
TEST_F(EngineTest, TiledLinearsTrainUnderZero3) {
  GptConfig plain_cfg = tiny_model();
  plain_cfg.hidden = 32;
  plain_cfg.layers = 1;
  GptConfig tiled_cfg = plain_cfg;
  tiled_cfg.linear_factory = TiledLinear::factory(4);

  EngineConfig cfg = preset_zero3();
  cfg.adam.lr = 1e-2f;
  cfg.loss_scale.init_scale = 1024.0f;
  const RunResult plain =
      run_training(cfg, plain_cfg, 2, 6, 1, dir_ / "plain", /*fixed_data=*/true);
  const RunResult tiled =
      run_training(cfg, tiled_cfg, 2, 6, 1, dir_ / "tiled", /*fixed_data=*/true);

  // Both learn. (The tiled model's parameters have different names and
  // therefore different deterministic init, so the trajectories are not
  // comparable point-wise; exact tile/linear numerical equivalence with
  // copied weights is covered in test_core.)
  EXPECT_LT(plain.losses.back(), plain.losses.front() * 0.95f);
  EXPECT_LT(tiled.losses.back(), tiled.losses.front() * 0.95f);
}

TEST_F(EngineTest, Stage3ReleasesAllGpuMemoryBetweenSteps) {
  const GptConfig model_cfg = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = dir_.string();
  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    make_batch(comm.rank(), 0, model_cfg, 2, tokens, targets);
    engine.train_step(tokens, targets);
    // All gathered params and grad buffers released; with NVMe placement
    // the arena holds nothing persistent.
    EXPECT_EQ(engine.resources().gpu().used(), 0u);
    EXPECT_GT(engine.resources().gpu().stats().peak_used, 0u);
  });
}

TEST_F(EngineTest, MemorySummaryReportsTiers) {
  const GptConfig model_cfg = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = dir_.string();
  AioEngine aio;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    make_batch(comm.rank(), 0, model_cfg, 2, tokens, targets);
    engine.train_step(tokens, targets);
    const std::string summary = engine.memory_summary();
    EXPECT_NE(summary.find("GPU"), std::string::npos);
    EXPECT_NE(summary.find("NVMe"), std::string::npos);
    // NVMe actually holds the fp16 params + optimizer state.
    EXPECT_GT(engine.resources().accountant().used(Tier::kNvme), 0u);
    // The GPU figure is the arena's, which held the gathered parameters;
    // the accountant's GPU tier never sees them.
    const std::uint64_t arena_peak =
        engine.resources().gpu().stats().peak_used;
    EXPECT_GT(arena_peak, 0u);
    const std::string gpu =
        "GPU " + format_bytes(engine.resources().gpu().used()) + " (peak " +
        format_bytes(arena_peak) + ")";
    EXPECT_EQ(summary.rfind(gpu, 0), 0u) << summary;
  });
}

TEST_F(EngineTest, InvalidConfigsRejected) {
  const GptConfig model_cfg = tiny_model();
  AioEngine aio;
  // Stage 2 with NVMe optimizer is not a Table 2 configuration.
  EngineConfig bad = preset_zero2();
  bad.optimizer_placement = Placement::kNvme;
  bad.nvme_dir = dir_.string();
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(model_cfg);
    EXPECT_THROW(ZeroEngine(model, comm, aio, bad), Error);
  });
  // Stages 0-2 require replicated params on GPU.
  EngineConfig bad2 = preset_zero2();
  bad2.param_placement = Placement::kCpu;
  bad2.nvme_dir = dir_.string();
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(model_cfg);
    EXPECT_THROW(ZeroEngine(model, comm, aio, bad2), Error);
  });
}

}  // namespace
}  // namespace zi
