// Edge cases across modules: truncated checkpoints, long-prompt
// generation, LocalParamStore semantics, accountant reporting, logging.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/log.hpp"
#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "model/gpt.hpp"
#include "model/local_store.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

TEST(Edge, TruncatedCheckpointIsRejected) {
  const fs::path dir =
      fs::temp_directory_path() / ("zi_edge_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  GptConfig mc;
  mc.vocab = 32;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 1;
  mc.heads = 2;
  const std::string ckpt = (dir / "c.bin").string();
  EngineConfig cfg = preset_zero3();
  cfg.nvme_dir = (dir / "swap").string();
  AioEngine aio;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(8, 1), targets(8, 2);
    engine.train_step(tokens, targets);
    engine.save_checkpoint(ckpt);
  });
  // Truncate the file mid-record.
  const auto full_size = fs::file_size(ckpt);
  fs::resize_file(ckpt, full_size / 2);
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    EXPECT_THROW(engine.load_checkpoint(ckpt), Error);
  });
  fs::remove_all(dir);
}

TEST(Edge, GenerationWithPromptLongerThanContext) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 1;
  mc.heads = 2;
  Gpt model(mc);
  LocalParamStore store(model);
  // Prompt of 12 tokens (> seq): the window must slide over it gracefully.
  std::vector<std::int32_t> prompt(12);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<std::int32_t>(i % 4);
  }
  const auto out = model.generate_greedy(prompt, 16);
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    EXPECT_EQ(out[i], prompt[i]);  // prompt preserved verbatim
  }
  for (const std::int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, mc.vocab);
  }
}

TEST(Edge, GenerationRejectsBadArguments) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  Gpt model(mc);
  LocalParamStore store(model);
  std::vector<std::int32_t> empty;
  EXPECT_THROW(model.generate_greedy(empty, 4), Error);
  std::vector<std::int32_t> prompt = {1, 2, 3};
  EXPECT_THROW(model.generate_greedy(prompt, 2), Error);  // length < prompt
}

TEST(Edge, LocalParamStoreComputesFromFp16) {
  Linear lin("lin", 4, 4);
  lin.finalize();
  LocalParamStore store(lin);
  Parameter* w = lin.weight();
  // The fp16 weights are the compute tensor: a write is what compute reads.
  store.fp16(w).set(0, 2.5f);
  EXPECT_EQ(&store.fp16(w), &w->full_tensor());
  EXPECT_EQ(w->data()[0].to_float(), 2.5f);
  // Grad zeroing really zeroes.
  w->grad_tensor().set(3, 7.0f);
  store.zero_grads();
  EXPECT_EQ(w->grad_tensor().get(3), 0.0f);
  // Unknown parameter lookup fails loudly.
  Parameter stranger("other", {2}, InitKind::kZero, 1.0f);
  EXPECT_THROW(store.fp16(&stranger), Error);
}

TEST(Edge, AccountantSummaryMentionsAllTiers) {
  MemoryAccountant acc;
  acc.add(Tier::kGpu, 1024);
  acc.add(Tier::kNvme, 4096);
  acc.sub(Tier::kGpu, 1024);
  const std::string s = acc.summary();
  EXPECT_NE(s.find("GPU 0 B"), std::string::npos);
  EXPECT_NE(s.find("peak 1.00 KiB"), std::string::npos);
  EXPECT_NE(s.find("NVMe 4.00 KiB"), std::string::npos);
}

TEST(Edge, LogLevelsGateEmission) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  ZI_LOG_ERROR << "suppressed";  // must not crash, must not emit
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(saved);
}

TEST(Edge, DatasetMinimumViableCorpus) {
  // seq + 1 tokens: exactly one window.
  std::vector<std::int32_t> tokens = {1, 2, 3, 4, 5};
  TokenDataset ds(tokens, /*seq=*/4);
  EXPECT_EQ(ds.num_windows(), 1);
  std::vector<std::int32_t> in, tg;
  ds.sample_batch(0, 0, 3, in, tg);  // every draw is the same window
  EXPECT_EQ(in[0], 1);
  EXPECT_EQ(tg[3], 5);
}

TEST(Edge, EngineRejectsEmptyMicroBatchList) {
  GptConfig mc;
  mc.vocab = 16;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 1;
  mc.heads = 2;
  EngineConfig cfg = preset_zero3();
  cfg.nvme_dir =
      (fs::temp_directory_path() / "zi_edge_empty").string();
  AioEngine aio;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<ZeroEngine::MicroBatch> none;
    EXPECT_THROW(engine.train_step(none), Error);
  });
  fs::remove_all(fs::temp_directory_path() / "zi_edge_empty");
}

}  // namespace
}  // namespace zi
