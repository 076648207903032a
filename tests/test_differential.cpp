// Differential correctness harness.
//
// Every (ZeRO stage, placement) strategy is compared head-to-head against
// the classic data-parallel baseline on the same model and data: the loss
// trajectory must be bit-identical at every step, AND the final model state
// (fp16 params, fp32 master weights, momentum, variance) must match
// exactly. State equality is checked by saving a universal checkpoint from
// both runs — the checkpoint stores values unpartitioned, so two strategies
// that agree produce byte-identical payloads regardless of how they shard
// or place the state.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "model/gpt.hpp"

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

void make_batch(int rank, int step, const GptConfig& cfg, int batch,
                std::vector<std::int32_t>& tokens,
                std::vector<std::int32_t>& targets) {
  const std::int64_t n = batch * cfg.seq;
  tokens.resize(static_cast<std::size_t>(n));
  targets.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v = (rank * 31 + step * 7 + i * 3) % (cfg.vocab - 1);
    tokens[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(v);
    targets[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>((v * 3 + 3) % (cfg.vocab - 1));
  }
}

std::vector<std::byte> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(buf.data());
  return {p, p + buf.size()};
}

/// Train `steps` steps and checkpoint the final state; returns the loss
/// trajectory (rank 0's view of the global mean).
std::vector<float> run_and_checkpoint(EngineConfig cfg,
                                      const GptConfig& model_cfg, int world,
                                      int steps, const fs::path& dir,
                                      const std::string& ckpt) {
  cfg.nvme_dir = (dir / "swap").string();
  std::vector<float> losses(static_cast<std::size_t>(steps));
  AioEngine aio;
  run_ranks(world, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    for (int s = 0; s < steps; ++s) {
      make_batch(comm.rank(), s, model_cfg, 2, tokens, targets);
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0) losses[static_cast<std::size_t>(s)] = st.global_loss;
    }
    engine.save_checkpoint(ckpt);
  });
  return losses;
}

struct Strategy {
  std::string name;
  EngineConfig (*make)();
};

EngineConfig make_zero_inf_nvme_acts() {
  EngineConfig c = preset_zero_infinity_nvme();
  c.activation_placement = Placement::kNvme;
  return c;
}

class DifferentialTest : public ::testing::TestWithParam<Strategy> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_diff_" + GetParam().name + "_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(DifferentialTest, MatchesDdpBaselineInLossesAndFinalState) {
  const GptConfig model_cfg = tiny_model();
  constexpr int kWorld = 2;
  constexpr int kSteps = 6;

  const std::string base_ckpt = (dir_ / "ddp.ckpt").string();
  const std::string test_ckpt = (dir_ / "strategy.ckpt").string();

  const std::vector<float> base_losses = run_and_checkpoint(
      preset_data_parallel(), model_cfg, kWorld, kSteps, dir_, base_ckpt);
  const std::vector<float> test_losses = run_and_checkpoint(
      GetParam().make(), model_cfg, kWorld, kSteps, dir_, test_ckpt);

  // Losses: bit-identical, every step.
  ASSERT_EQ(base_losses.size(), test_losses.size());
  for (std::size_t s = 0; s < base_losses.size(); ++s) {
    EXPECT_EQ(base_losses[s], test_losses[s]) << "step " << s;
  }

  // Final state: the unpartitioned checkpoint payloads are byte-identical
  // (fp16 params + fp32 master/momentum/variance + scaler state).
  const auto base_bytes = file_bytes(base_ckpt);
  const auto test_bytes = file_bytes(test_ckpt);
  ASSERT_FALSE(base_bytes.empty());
  ASSERT_EQ(base_bytes.size(), test_bytes.size());
  EXPECT_TRUE(base_bytes == test_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DifferentialTest,
    ::testing::Values(Strategy{"zero1", &preset_zero1},
                      Strategy{"zero2", &preset_zero2},
                      Strategy{"zero_offload", &preset_zero_offload},
                      Strategy{"zero3", &preset_zero3},
                      Strategy{"zero_inf_cpu", &preset_zero_infinity_cpu},
                      Strategy{"zero_inf_nvme", &preset_zero_infinity_nvme},
                      Strategy{"zero_inf_nvme_acts", &make_zero_inf_nvme_acts}),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace zi
