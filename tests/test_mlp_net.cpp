// Architecture-independence tests: the MlpClassifier (no attention, no
// tying, no sequence structure) trains under the same engine and the same
// exactness guarantees as the paper's GPT workload — the "arbitrary model
// architectures" claim of Sec. 5.3 / 7.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/half.hpp"
#include "core/engine.hpp"
#include "model/local_store.hpp"
#include "model/gpt.hpp"
#include "model/mlp_net.hpp"
#include "optim/adam.hpp"
#include "scalar_oracles.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

MlpNetConfig tiny_net() {
  MlpNetConfig cfg;
  cfg.num_features = 32;
  cfg.features_per_example = 4;
  cfg.hidden = 16;
  cfg.depth = 2;
  cfg.num_classes = 5;
  return cfg;
}

void make_batch(int rank, int salt, const MlpNetConfig& cfg, int batch,
                std::vector<std::int32_t>& inputs,
                std::vector<std::int32_t>& targets) {
  inputs.resize(static_cast<std::size_t>(batch * cfg.features_per_example));
  targets.resize(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<std::int32_t>(
        (rank * 17 + salt * 5 + static_cast<int>(i) * 3) % cfg.num_features);
  }
  for (std::size_t b = 0; b < targets.size(); ++b) {
    // The label is a deterministic function of the features — learnable.
    targets[b] = static_cast<std::int32_t>(
        (inputs[b * static_cast<std::size_t>(cfg.features_per_example)] +
         inputs[b * static_cast<std::size_t>(cfg.features_per_example) + 1]) %
        cfg.num_classes);
  }
}

TEST(MlpNet, GradCheckThroughWholeNetwork) {
  MlpNetConfig cfg = tiny_net();
  MlpClassifier net(cfg);
  LocalParamStore store(net);

  std::vector<std::int32_t> inputs, targets;
  make_batch(0, 0, cfg, 3, inputs, targets);

  store.zero_grads();
  (void)net.forward_loss(inputs, targets);
  net.backward_loss(1.0f);

  const float eps = 3e-3f;
  for (Parameter* p : net.all_parameters()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 5);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      // fp16 parameters: step to the nearest representable values and
      // divide by the realized difference.
      Tensor& data = p->full_tensor();
      const float save = data.get(i);
      data.set(i, save + eps);
      const double up_at = data.get(i);
      const double up = net.forward_loss(inputs, targets);
      data.set(i, save - eps);
      const double down_at = data.get(i);
      const double down = net.forward_loss(inputs, targets);
      data.set(i, save);
      const double numeric = (up - down) / (up_at - down_at);
      const double analytic = p->grad_tensor().get(i);
      const double denom =
          std::max({std::fabs(numeric), std::fabs(analytic), 0.05});
      EXPECT_LE(std::fabs(numeric - analytic) / denom, 8e-2)
          << p->name() << "[" << i << "] numeric=" << numeric
          << " analytic=" << analytic;
    }
  }
}

TEST(MlpNet, StrategyExactnessHoldsForNonTransformer) {
  const MlpNetConfig cfg = tiny_net();
  const fs::path dir =
      fs::temp_directory_path() / ("zi_mlp_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  auto run = [&](EngineConfig ecfg, const fs::path& d) {
    ecfg.nvme_dir = d.string();
    ecfg.adam.lr = 1e-2f;
    ecfg.loss_scale.init_scale = 1024.0f;
    std::vector<float> losses;
    AioEngine aio;
    run_ranks(2, [&](Communicator& comm) {
      MlpClassifier net(cfg);
      ZeroEngine engine(net, comm, aio, ecfg);
      std::vector<std::int32_t> inputs, targets;
      for (int s = 0; s < 12; ++s) {
        make_batch(comm.rank(), 0, cfg, 4, inputs, targets);
        const auto st = engine.train_step(inputs, targets);
        if (comm.rank() == 0) losses.push_back(st.global_loss);
      }
    });
    return losses;
  };

  const auto ddp = run(preset_data_parallel(), dir / "ddp");
  const auto inf = run(preset_zero_infinity_nvme(), dir / "inf");
  const auto off = run(preset_zero_offload(), dir / "off");

  ASSERT_EQ(ddp.size(), 12u);
  for (std::size_t i = 0; i < ddp.size(); ++i) {
    EXPECT_EQ(inf[i], ddp[i]) << i;
    EXPECT_EQ(off[i], ddp[i]) << i;
  }
  // And it actually learns the synthetic rule.
  EXPECT_LT(ddp.back(), ddp.front());
  fs::remove_all(dir);
}

TEST(MlpNet, InputValidation) {
  MlpClassifier net(tiny_net());
  LocalParamStore store(net);
  std::vector<std::int32_t> inputs(7, 0), targets(2, 0);  // 7 != 2*4
  EXPECT_THROW(net.forward_loss(inputs, targets), Error);
  EXPECT_THROW(net.backward_loss(1.0f), Error);  // no forward yet
  Tensor t({1}, DType::kF32);
  EXPECT_THROW(net.forward(t), Error);
}

TEST(MlpNet, ParameterCount) {
  MlpNetConfig cfg = tiny_net();
  MlpClassifier net(cfg);
  // features 32x16 + 2x(16x16 + 16) + head 16x5 + 5.
  EXPECT_EQ(net.num_parameters(), 32 * 16 + 2 * (16 * 16 + 16) + 16 * 5 + 5);
}

// ---------------------------------------------------------------------------
// Generation through the hook-driven forward.

TEST(GptGeneration, LearnsAndReproducesAPeriodicSequence) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  mc.hidden = 32;
  mc.layers = 2;
  mc.heads = 4;
  Gpt model(mc);
  LocalParamStore store(model);

  // Memorize the periodic sequence "0 1 2 3 ..." at every phase offset, so
  // the model is robust to the sliding generation window (each training row
  // r starts the cycle at phase r).
  std::vector<std::int32_t> tokens(4 * mc.seq), targets(tokens.size());
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::int64_t i = 0; i < mc.seq; ++i) {
      const auto idx = r * static_cast<std::size_t>(mc.seq) +
                       static_cast<std::size_t>(i);
      tokens[idx] = static_cast<std::int32_t>((i + static_cast<std::int64_t>(r)) % 4);
      targets[idx] = static_cast<std::int32_t>((i + static_cast<std::int64_t>(r) + 1) % 4);
    }
  }
  AdamConfig adam;
  adam.lr = 1e-2f;
  // Mixed precision, as in the engines: Adam updates fp32 masters, and the
  // fp16 compute tensors take the rounded result.
  std::vector<std::vector<float>> master, m, v;
  for (Parameter* p : model.all_parameters()) {
    master.emplace_back(static_cast<std::size_t>(p->numel()));
    halves_to_floats(p->full_tensor().span<half>(), master.back());
    m.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
    v.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
  }
  for (int s = 1; s <= 60; ++s) {
    store.zero_grads();
    (void)model.forward_loss(tokens, targets);
    model.backward_loss(1.0f);
    const auto params = model.all_parameters();
    for (std::size_t k = 0; k < params.size(); ++k) {
      Parameter* p = params[k];
      oracle::adam_step(adam, s, master[k], m[k], v[k],
                        p->grad_tensor().span<float>());
      floats_to_halves(master[k], p->full_tensor().span<half>());
    }
  }

  const std::int32_t prompt[] = {0, 1, 2};
  const auto generated = model.generate_greedy(prompt, 12);
  ASSERT_EQ(generated.size(), 12u);
  for (std::size_t i = 0; i < generated.size(); ++i) {
    EXPECT_EQ(generated[i], static_cast<std::int32_t>(i % 4)) << i;
  }
}

TEST(GptGeneration, SampledGenerationSemantics) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 1;
  mc.heads = 2;
  Gpt model(mc);
  LocalParamStore store(model);
  const std::int32_t prompt[] = {1, 2, 3};

  // temperature -> 0 and top_k = 1 both recover greedy decoding.
  const auto greedy = model.generate_greedy(prompt, 10);
  EXPECT_EQ(model.generate_sampled(prompt, 10, 0.0f, 0, 1), greedy);
  EXPECT_EQ(model.generate_sampled(prompt, 10, 1.0f, 1, 7), greedy);

  // Deterministic by seed; different seeds may diverge.
  const auto a = model.generate_sampled(prompt, 20, 1.5f, 0, 42);
  const auto b = model.generate_sampled(prompt, 20, 1.5f, 0, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 20u);
  for (const std::int32_t t : a) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, mc.vocab);
  }
}

TEST(GptGeneration, ForwardLogitsShapeAndDeterminism) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  Gpt model(mc);
  LocalParamStore store(model);
  std::vector<std::int32_t> tokens(8, 3);
  Tensor a = model.forward_logits(tokens);
  Tensor b = model.forward_logits(tokens);
  ASSERT_EQ(a.shape(), (std::vector<std::int64_t>{8, 16}));
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.get(i), b.get(i));
}

}  // namespace
}  // namespace zi
