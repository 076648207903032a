// Optimizer-driver equivalence: the flat per-rank optimizer state and the
// one cross-parameter NVMe pipeline are exact transformations of the
// per-parameter update. Every chunk size, optimizer placement, shard layout
// and overlap setting follows the DDP trajectory bit for bit and saves the
// same checkpoint bytes; an I/O fault in the middle of the pipeline
// surfaces, drains every transfer and leaves the pipeline reusable.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "testing/fault_injector.hpp"

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

void make_batch(int rank, int step, const GptConfig& cfg,
                std::vector<std::int32_t>& tokens,
                std::vector<std::int32_t>& targets) {
  const std::int64_t n = 2 * cfg.seq;
  tokens.resize(static_cast<std::size_t>(n));
  targets.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v = (rank * 31 + step * 7 + i * 3) % (cfg.vocab - 1);
    tokens[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(v);
    targets[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>((v * 3 + 3) % (cfg.vocab - 1));
  }
}

std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct RunResult {
  std::vector<float> losses;
  std::vector<char> ckpt;
  std::uint64_t chunks = 0;     ///< rank 0's NVMe chunks, all steps
  std::int64_t opt_elems = 0;   ///< rank 0's optimizer state elements
};

constexpr int kWorld = 2;
constexpr int kSteps = 3;

RunResult train_and_checkpoint(EngineConfig cfg, const fs::path& dir) {
  const GptConfig mc = tiny_model();
  cfg.nvme_dir = (dir / "swap").string();
  const std::string ckpt = (dir / "state.ckpt").string();
  RunResult run;
  run.losses.resize(kSteps);
  AioEngine aio;
  run_ranks(kWorld, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    for (int s = 0; s < kSteps; ++s) {
      make_batch(comm.rank(), s, mc, tokens, targets);
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0) {
        run.losses[static_cast<std::size_t>(s)] = st.global_loss;
      }
    }
    engine.save_checkpoint(ckpt);
    if (comm.rank() == 0) {
      run.chunks = engine.optimizer().stats().chunks_pipelined;
      run.opt_elems = engine.state_store().opt_elems();
    }
  });
  std::ifstream in(ckpt, std::ios::binary);
  run.ckpt.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  return run;
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_optimizer_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

// FNV-1a of the DDP run's checkpoint file as saved by the per-parameter
// optimizer layout the flat regions replaced: the flat layout keeps the
// checkpoint's per-parameter byte order.
constexpr std::uint64_t kPerParameterCheckpointFnv = 0x070e519ab6454171ull;

TEST_F(OptimizerTest, EveryChunkingPlacementAndLayoutMatchesDdp) {
  const RunResult ref =
      train_and_checkpoint(preset_data_parallel(), dir_ / "ddp");
  ASSERT_FALSE(ref.ckpt.empty());
  EXPECT_EQ(fnv1a(ref.ckpt), kPerParameterCheckpointFnv)
      << std::hex << "0x" << fnv1a(ref.ckpt);

  struct Placement {
    const char* name;
    EngineConfig (*make)();
    bool nvme;
  };
  const Placement placements[] = {
      {"gpu", &preset_zero3, false},
      {"cpu", &preset_zero_infinity_cpu, false},
      {"nvme", &preset_zero_infinity_nvme, true},
  };
  // 1 << 20 exceeds a rank's whole state: one chunk per step.
  const std::int64_t chunks[] = {1, 7, 4096, 1 << 15, 1 << 20};
  int runs = 0;
  for (const RankWeights& weights : {RankWeights{}, RankWeights{1.0, 3.0}}) {
    for (const bool overlap : {true, false}) {
      for (const Placement& pl : placements) {
        for (const std::int64_t chunk : chunks) {
          EngineConfig cfg = pl.make();
          cfg.rank_weights = weights;
          cfg.overlap_transfers = overlap;
          cfg.optimizer_chunk_elems = chunk;
          const std::string name =
              std::string(pl.name) +
              (weights.empty() ? "_uniform" : "_weighted") +
              (overlap ? "_overlap" : "_sequential") + "_chunk" +
              std::to_string(chunk);
          const RunResult run = train_and_checkpoint(cfg, dir_ / name);
          ++runs;
          EXPECT_EQ(run.losses, ref.losses) << name;
          EXPECT_TRUE(run.ckpt == ref.ckpt) << name;
          // One pipeline over the rank's whole state: its chunks cross
          // parameter boundaries, so only the last one is short.
          const std::int64_t per_step =
              pl.nvme ? (run.opt_elems + chunk - 1) / chunk : 0;
          EXPECT_EQ(run.chunks, static_cast<std::uint64_t>(kSteps * per_step))
              << name;
        }
      }
    }
  }
  EXPECT_EQ(runs, 2 * 2 * 3 * 5);
}

// An aio_read or aio_write error in the middle of the NVMe pipeline: the
// step rethrows the typed error after every in-flight transfer has landed,
// each transfer is counted once by the mover and once by the engine, the
// pinned pool is whole, and the next step runs through.
TEST_F(OptimizerTest, IoFaultMidPipelineRethrowsAndLeavesNothingInFlight) {
  for (const char* site : {"aio_read", "aio_write"}) {
    SCOPED_TRACE(site);
    AioConfig acfg;
    acfg.max_retries = 0;  // the one injected error is final
    AioEngine aio(acfg);
    EngineConfig cfg = preset_zero_infinity_nvme();
    cfg.nvme_dir = (dir_ / site).string();
    cfg.optimizer_chunk_elems = 256;
    fs::create_directories(cfg.nvme_dir);
    Gpt model(tiny_model());
    const std::vector<Parameter*> params = model.all_parameters();
    RankResources res(0, aio, 8 * kMiB, 16 * kMiB, cfg.nvme_dir, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, params, 0, 1);
    OptimizerDriver driver(store, cfg);
    for (Parameter* p : params) {
      std::vector<half> grad(
          static_cast<std::size_t>(store.opt_spec(p).shard_elems));
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] = half(0.01f * static_cast<float>(i % 13));
      }
      store.store_grad_shard(p, grad);
    }
    const std::size_t pinned_total = res.pinned().num_buffers();
    const std::uint64_t num_chunks =
        static_cast<std::uint64_t>((store.opt_elems() + 255) / 256);
    ASSERT_GT(num_chunks, 4u);

    // The fifth transfer attempt at the site fails: chunk 1's reads, or
    // a write-back of chunk 0 or 1.
    FaultInjector::instance().configure(std::string(site) +
                                        ":error,after=4,count=1");
    EXPECT_THROW(driver.step(1, 1.0f, 1.0f, nullptr),
                 RetriesExhaustedError);
    EXPECT_LT(driver.stats().chunks_pipelined, num_chunks);
    FaultInjector::instance().clear();

    aio.drain();
    const DataMover::Stats moved = res.mover().stats();
    EXPECT_EQ(moved.route(Route::kNvmeFetch).transfers +
                  moved.route(Route::kNvmeSpill).transfers,
              aio.stats().requests);
    EXPECT_EQ(aio.stats().retries_exhausted, 1u);
    EXPECT_EQ(res.pinned().available(), pinned_total);

    // Nothing stale is left in the pipeline's buffers.
    const std::uint64_t before = driver.stats().chunks_pipelined;
    driver.step(2, 1.0f, 1.0f, nullptr);
    EXPECT_EQ(driver.stats().chunks_pipelined - before, num_chunks);
    EXPECT_EQ(res.pinned().available(), pinned_total);
  }
}

}  // namespace
}  // namespace zi
