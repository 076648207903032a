// Character-level language model, end to end through the whole stack:
// byte tokenizer → dataset → Trainer (warmup + cosine LR, gradient
// accumulation, periodic eval) → ZeRO-Infinity engine with NVMe offload →
// greedy generation from the trained partitioned model.
//
//   ./char_lm [steps]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/trainer.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"
#include "scratch_dir.hpp"

using namespace zi;

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 150;
  const ScratchDir dir("zi_char_lm");

  // The corpus: a sentence the model will memorize.
  const std::string sentence =
      "zero infinity breaks the gpu memory wall. ";
  std::string corpus;
  for (int i = 0; i < 40; ++i) corpus += sentence;

  ByteTokenizer tok;
  GptConfig mc;
  mc.vocab = tok.vocab_size();
  mc.seq = 32;
  mc.hidden = 64;
  mc.layers = 2;
  mc.heads = 4;
  TokenDataset data(tok.encode(corpus), mc.seq);

  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir.path / "swap").string();
  cfg.loss_scale.init_scale = 1024.0f;
  cfg.persistence_threshold_elems = mc.hidden;  // keep LN params gathered

  TrainerConfig tc;
  tc.total_steps = steps;
  tc.batch_per_rank = 2;
  tc.micro_batches = 2;
  tc.eval_every = steps / 3;
  tc.schedule.base_lr = 1e-2f;
  tc.schedule.warmup_steps = 10;
  tc.schedule.total_steps = steps;
  tc.schedule.min_lr = 1e-3f;

  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    Trainer trainer(engine, comm, data, &data, tc);
    const TrainerReport report = trainer.run();

    if (comm.rank() == 0) {
      std::cout << "trained " << report.train_losses.size() << " steps: loss "
                << report.train_losses.front() << " -> "
                << report.train_losses.back() << "\n";
      std::cout << "eval losses:";
      for (const float e : report.eval_losses) std::cout << " " << e;
      std::cout << "\nmemory: " << engine.memory_summary() << "\n\n";
    }

    // Generation runs through the same ZeRO hooks — parameters stream in
    // from NVMe shard by shard as the forward pass needs them, which also
    // means every rank must participate (the gathers are collectives).
    const auto prompt = tok.encode("zero inf");
    const auto out = model.generate_greedy(prompt, 80);
    if (comm.rank() == 0) {
      std::cout << "prompt    : \"zero inf\"\n";
      std::cout << "generated : \"" << tok.decode(out) << "\"\n";
    }
    comm.barrier();
  });
  return 0;
}
