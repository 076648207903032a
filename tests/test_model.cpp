// Model-layer tests: module tree mechanics, hook firing, and numerical
// gradient checks of attention / blocks / the full GPT (including tied
// embeddings — the external-parameter path).
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <cmath>

#include "common/rng.hpp"
#include "model/attention.hpp"
#include "model/block.hpp"
#include "model/checkpoint.hpp"
#include "model/gpt.hpp"
#include "model/local_store.hpp"

namespace zi {
namespace {

Tensor randn_tensor(std::vector<std::int64_t> shape, std::uint64_t stream) {
  Tensor t(std::move(shape), DType::kF32);
  Rng rng(99, stream);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = rng.next_normal() * 0.5f;
  return t;
}

std::vector<float> loss_weights(std::size_t n) {
  Rng rng(777, 4242);
  std::vector<float> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = rng.next_normal();
  return w;
}

double weighted(const Tensor& t, const std::vector<float>& w) {
  double s = 0.0;
  const float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    s += static_cast<double>(p[i]) * w[static_cast<std::size_t>(i)];
  }
  return s;
}

// ---------------------------------------------------------------------------
// Tree mechanics

TEST(ModuleTree, ParameterIdsAreStablePreorder) {
  GptConfig cfg;
  cfg.layers = 2;
  Gpt a(cfg), b(cfg);
  const auto pa = a.all_parameters();
  const auto pb = b.all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->name(), pb[i]->name());
    EXPECT_EQ(pa[i]->id(), static_cast<int>(i));
    EXPECT_EQ(pa[i]->shape(), pb[i]->shape());
  }
}

TEST(ModuleTree, TiedHeadRegistersExternalParameter) {
  GptConfig cfg;
  cfg.tie_embeddings = true;
  Gpt model(cfg);
  // Find the lm_head module and check its compute set includes wte.table.
  std::vector<Module*> mods;
  model.collect_modules(mods);
  Module* head = nullptr;
  for (Module* m : mods) {
    if (m->name() == "gpt.lm_head") head = m;
  }
  ASSERT_NE(head, nullptr);
  EXPECT_TRUE(head->own_parameters().empty());
  ASSERT_EQ(head->external_parameters().size(), 1u);
  EXPECT_EQ(head->external_parameters()[0]->name(), "gpt.wte.table");
  EXPECT_EQ(head->compute_parameters().size(), 1u);
}

TEST(ModuleTree, UntiedHeadOwnsItsWeight) {
  GptConfig cfg;
  cfg.tie_embeddings = false;
  Gpt model(cfg);
  std::vector<Module*> mods;
  model.collect_modules(mods);
  for (Module* m : mods) {
    if (m->name() == "gpt.lm_head") {
      EXPECT_EQ(m->own_parameters().size(), 1u);
      EXPECT_TRUE(m->external_parameters().empty());
    }
  }
}

TEST(ModuleTree, HooksFireInOrderAroundLeafCompute) {
  Linear lin("lin", 4, 3);
  LocalParamStore store(lin);
  std::vector<std::string> events;
  Module::Hooks hooks;
  hooks.pre_forward = [&](Module& m) { events.push_back("pre_f:" + m.name()); };
  hooks.post_forward = [&](Module& m) { events.push_back("post_f:" + m.name()); };
  hooks.pre_backward = [&](Module& m) { events.push_back("pre_b:" + m.name()); };
  hooks.post_backward = [&](Module& m) { events.push_back("post_b:" + m.name()); };
  lin.install_hooks(hooks);

  Tensor x = randn_tensor({2, 4}, 1);
  Tensor y = lin.run_forward(x);
  Tensor dy = randn_tensor({2, 3}, 2);
  lin.run_backward(dy);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], "pre_f:lin");
  EXPECT_EQ(events[1], "post_f:lin");
  EXPECT_EQ(events[2], "pre_b:lin");
  EXPECT_EQ(events[3], "post_b:lin");
}

TEST(ModuleTree, HooksReachAllDescendants) {
  GptConfig cfg;
  cfg.layers = 1;
  Gpt model(cfg);
  int fired = 0;
  Module::Hooks hooks;
  hooks.pre_forward = [&](Module&) { ++fired; };
  model.install_hooks(hooks);
  std::vector<Module*> mods;
  model.collect_modules(mods);
  for (Module* m : mods) m->fire_pre_forward();
  EXPECT_EQ(fired, static_cast<int>(mods.size()));
}

TEST(ModuleTree, ParameterAccessWithoutGatherThrows) {
  Linear lin("lin", 2, 2);
  // No LocalParamStore: parameters are kNotAvailable.
  Tensor x = randn_tensor({1, 2}, 3);
  EXPECT_THROW(lin.forward(x), Error);
}

TEST(ParameterInit, DeterministicAndNameDependent) {
  Parameter a("w.a", {8}, InitKind::kNormal, 0.02f);
  Parameter a2("w.a", {8}, InitKind::kNormal, 0.02f);
  Parameter b("w.b", {8}, InitKind::kNormal, 0.02f);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.init_value(i), a2.init_value(i));
    if (a.init_value(i) != b.init_value(i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  Parameter ones("g", {4}, InitKind::kOne, 1.0f);
  Parameter zeros("z", {4}, InitKind::kZero, 1.0f);
  EXPECT_EQ(ones.init_value(2), 1.0f);
  EXPECT_EQ(zeros.init_value(2), 0.0f);
}

// ---------------------------------------------------------------------------
// Gradient checks through whole modules

// Generic numeric-vs-analytic check for a module with a Tensor->Tensor
// forward; perturbs input entries and a sample of parameter entries.
void module_gradcheck(Module& mod, LocalParamStore& store, Tensor input,
                      double tol = 4e-2) {
  Tensor probe = mod.run_forward(input.clone());
  const auto lw = loss_weights(static_cast<std::size_t>(probe.numel()));

  auto loss = [&](const Tensor& in) {
    Tensor out = mod.run_forward(in.clone());
    return weighted(out, lw);
  };

  // Analytic gradients.
  store.zero_grads();
  Tensor dy({probe.shape()}, DType::kF32);
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dy.set(i, lw[static_cast<std::size_t>(i)]);
  }
  (void)mod.run_forward(input.clone());
  Tensor din = mod.run_backward(dy);

  const float eps = 1e-3f;
  // Input gradient: check every entry.
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float save = input.get(i);
    input.set(i, save + eps);
    const double up = loss(input);
    input.set(i, save - eps);
    const double down = loss(input);
    input.set(i, save);
    const double numeric = (up - down) / (2.0 * eps);
    const double analytic = din.get(i);
    const double denom =
        std::max({std::fabs(numeric), std::fabs(analytic), 1.0});
    EXPECT_LE(std::fabs(numeric - analytic) / denom, tol)
        << "d_input[" << i << "] numeric=" << numeric
        << " analytic=" << analytic;
  }

  // Parameter gradients: sample entries from every parameter.
  for (Parameter* p : mod.all_parameters()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 7);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      // fp16 parameters: step to the nearest representable values and
      // divide by the realized difference.
      Tensor& data = p->full_tensor();
      const float save = data.get(i);
      data.set(i, save + eps);
      const double up_at = data.get(i);
      const double up = loss(input);
      data.set(i, save - eps);
      const double down_at = data.get(i);
      const double down = loss(input);
      data.set(i, save);
      const double numeric = (up - down) / (up_at - down_at);
      const double analytic = p->grad_tensor().get(i);
      const double denom =
          std::max({std::fabs(numeric), std::fabs(analytic), 1.0});
      EXPECT_LE(std::fabs(numeric - analytic) / denom, tol)
          << p->name() << "[" << i << "] numeric=" << numeric
          << " analytic=" << analytic;
    }
  }
}

TEST(AttentionGrad, FullGradientCheck) {
  CausalSelfAttention attn("attn", /*hd=*/8, /*heads=*/2, /*seq=*/4);
  LocalParamStore store(attn);
  module_gradcheck(attn, store, randn_tensor({8, 8}, 10));  // batch=2
}

TEST(BlockGrad, FullGradientCheck) {
  TransformerBlock block("blk", /*hd=*/8, /*heads=*/2, /*seq=*/4);
  LocalParamStore store(block);
  module_gradcheck(block, store, randn_tensor({4, 8}, 11));  // batch=1
}

TEST(MlpGrad, FullGradientCheck) {
  Mlp mlp("mlp", /*hd=*/6);
  LocalParamStore store(mlp);
  module_gradcheck(mlp, store, randn_tensor({3, 6}, 12));
}

// The end-to-end check: perturb parameters of the full GPT (embeddings,
// attention, MLP, final LN, tied head) and compare the analytic gradient of
// the cross-entropy loss. Exercises weight tying end to end.
TEST(GptGrad, LossGradientMatchesNumeric) {
  GptConfig cfg;
  cfg.vocab = 11;
  cfg.seq = 4;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.checkpoint_activations = false;
  Gpt model(cfg);
  LocalParamStore store(model);

  std::vector<std::int32_t> tokens = {3, 1, 4, 1, 5, 9, 2, 6};   // batch=2
  std::vector<std::int32_t> targets = {1, 4, 1, 5, 9, 2, 6, 10};

  store.zero_grads();
  (void)model.forward_loss(tokens, targets);
  model.backward_loss(1.0f);

  const float eps = 3e-3f;
  for (Parameter* p : model.all_parameters()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 5);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      // fp16 parameters: step to the nearest representable values and
      // divide by the realized difference.
      Tensor& data = p->full_tensor();
      const float save = data.get(i);
      data.set(i, save + eps);
      const double up_at = data.get(i);
      const double up = model.forward_loss(tokens, targets);
      data.set(i, save - eps);
      const double down_at = data.get(i);
      const double down = model.forward_loss(tokens, targets);
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

// ---------------------------------------------------------------------------
// Activation checkpointing

TEST(Checkpoint, RecomputeGivesIdenticalLossAndGrads) {
  GptConfig plain_cfg;
  plain_cfg.vocab = 13;
  plain_cfg.seq = 4;
  plain_cfg.hidden = 8;
  plain_cfg.layers = 2;
  plain_cfg.heads = 2;
  plain_cfg.checkpoint_activations = false;
  GptConfig ckpt_cfg = plain_cfg;
  ckpt_cfg.checkpoint_activations = true;

  Gpt plain(plain_cfg);
  Gpt ckpt(ckpt_cfg);
  LocalParamStore s1(plain), s2(ckpt);

  std::vector<std::int32_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::int32_t> targets = {2, 3, 4, 5, 6, 7, 8, 9};

  s1.zero_grads();
  s2.zero_grads();
  const float l1 = plain.forward_loss(tokens, targets);
  const float l2 = ckpt.forward_loss(tokens, targets);
  EXPECT_EQ(l1, l2);  // same deterministic init → bit-identical forward

  plain.backward_loss(1.0f);
  ckpt.backward_loss(1.0f);
  const auto p1 = plain.all_parameters();
  const auto p2 = ckpt.all_parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t k = 0; k < p1.size(); ++k) {
    for (std::int64_t i = 0; i < p1[k]->numel(); ++i) {
      ASSERT_EQ(p1[k]->grad_tensor().get(i), p2[k]->grad_tensor().get(i))
          << p1[k]->name() << "[" << i << "]";
    }
  }
}

TEST(Checkpoint, DropActivationsClearsLeafState) {
  TransformerBlock block("blk", 8, 2, 4);
  LocalParamStore store(block);
  Tensor x = randn_tensor({4, 8}, 20);
  (void)block.run_forward(x);
  block.drop_activations();
  Tensor dy = randn_tensor({4, 8}, 21);
  EXPECT_THROW(block.run_backward(dy), Error);
}

// ---------------------------------------------------------------------------
// GPT misc

TEST(Gpt, ParameterCountCloseToEq1) {
  GptConfig cfg;
  cfg.vocab = 64;
  cfg.seq = 16;
  cfg.hidden = 64;
  cfg.layers = 4;
  cfg.heads = 4;
  Gpt model(cfg);
  const double exact = static_cast<double>(model.num_parameters());
  const double approx = static_cast<double>(cfg.approx_params());
  // Eq. 1 ignores embeddings/layernorms/biases; at tiny hd the gap is
  // large, but the linear-layer bulk must dominate within ~2x.
  EXPECT_GT(exact, approx);
  EXPECT_LT(exact, approx * 2.5);
}

TEST(Gpt, RejectsTensorInterface) {
  GptConfig cfg;
  Gpt model(cfg);
  Tensor t({1}, DType::kF32);
  EXPECT_THROW(model.forward(t), Error);
  EXPECT_THROW(model.backward(t), Error);
}

TEST(Gpt, ForwardRejectsBadTokenCounts) {
  GptConfig cfg;
  cfg.seq = 8;
  Gpt model(cfg);
  LocalParamStore store(model);
  std::vector<std::int32_t> tokens(12, 1), targets(12, 1);  // not mult of 8
  EXPECT_THROW(model.forward_loss(tokens, targets), Error);
}

TEST(Gpt, EmbeddingRejectsOutOfVocabIds) {
  GptConfig cfg;
  cfg.vocab = 8;
  cfg.seq = 4;
  Gpt model(cfg);
  LocalParamStore store(model);
  std::vector<std::int32_t> tokens = {1, 2, 3, 99};
  std::vector<std::int32_t> targets = {1, 2, 3, 4};
  EXPECT_THROW(model.forward_loss(tokens, targets), Error);
}

TEST(Gpt, RejectsOutOfVocabTargets) {
  GptConfig cfg;
  cfg.vocab = 8;
  cfg.seq = 4;
  Gpt model(cfg);
  LocalParamStore store(model);
  // The check runs before any gather hook fires.
  int gathers = 0;
  Module::Hooks hooks;
  hooks.pre_forward = [&](Module&) { ++gathers; };
  model.install_hooks(hooks);
  const std::vector<std::int32_t> tokens = {1, 2, 3, 4};
  for (const std::int32_t bad : {8, 99, -1}) {
    const std::vector<std::int32_t> targets = {1, 2, bad, 4};
    EXPECT_THROW(model.forward_loss(tokens, targets), Error) << bad;
  }
  EXPECT_EQ(gathers, 0);
  const std::vector<std::int32_t> targets = {1, 2, 7, 0};
  EXPECT_TRUE(std::isfinite(model.forward_loss(tokens, targets)));
  EXPECT_GT(gathers, 0);
}

}  // namespace
}  // namespace zi
