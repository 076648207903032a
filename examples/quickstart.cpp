// Quickstart: train a GPT with ZeRO-Infinity in ~40 lines of user code.
//
// The ease-of-use story (Sec. 5.3/7): the model is written as a plain
// module tree — no tensor slicing, no pipeline stages, no manual
// communication. Handing it to ZeroEngine with an Infinity config is the
// only change vs single-device training: the engine injects hooks that
// gather/partition parameters around each submodule and moves all model
// states through the GPU → CPU → NVMe hierarchy.
//
//   ./quickstart [num_ranks] [steps]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "scratch_dir.hpp"

using namespace zi;

int main(int argc, char** argv) {
  const int world = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 20;

  // 1. Describe the model — exactly as for single-GPU training.
  GptConfig model_cfg;
  model_cfg.vocab = 64;
  model_cfg.seq = 16;
  model_cfg.hidden = 32;
  model_cfg.layers = 2;
  model_cfg.heads = 4;

  // 2. Pick a strategy. ZeRO-Infinity with NVMe offload: fp16 parameter
  //    shards and optimizer state live in swap files, activation
  //    checkpoints in CPU memory; the GPU arena holds only working tensors.
  EngineConfig cfg = preset_zero_infinity_nvme();
  const ScratchDir nvme("zi_quickstart");
  cfg.nvme_dir = nvme.path.string();
  cfg.adam.lr = 5e-3f;
  cfg.loss_scale.init_scale = 1024.0f;

  // 3. Train: one engine per data-parallel rank, same code on every rank.
  AioEngine aio;
  run_ranks(world, [&](Communicator& comm) {
    Gpt model(model_cfg);
    ZeroEngine engine(model, comm, aio, cfg);

    // Synthetic next-token data, different micro-batch per rank.
    std::vector<std::int32_t> tokens(2 * model_cfg.seq), targets(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = static_cast<std::int32_t>((comm.rank() * 11 + i * 3) % 63);
      targets[i] = static_cast<std::int32_t>((tokens[i] * 5 + 1) % 63);
    }

    for (int s = 0; s < steps; ++s) {
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0 && (s % 5 == 0 || s == steps - 1)) {
        std::cout << "step " << s << "  loss " << st.global_loss
                  << "  scale " << st.loss_scale
                  << (st.skipped ? "  (skipped: fp16 overflow)" : "") << "\n";
      }
    }
    if (comm.rank() == 0) {
      std::cout << "\nmemory: " << engine.memory_summary() << "\n";
      const auto& cs = engine.coordinator()->stats();
      std::cout << "coordinator: " << cs.fetches << " gathers, "
                << cs.prefetch_hits << " prefetch hits, " << cs.grads_reduced
                << " gradient reduce-scatters\n";
    }
  });
  return 0;
}
