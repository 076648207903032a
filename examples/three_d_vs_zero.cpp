// The paper's ease-of-use argument, side by side (Sec. 5.3):
//
//   "With ZeRO-Infinity, data scientists no longer have to adapt their
//    model to multiple forms of parallelism like in 3D parallelism."
//
// Both engines train the same transformer shape on 4 rank threads. Count
// what each requires of the user:
//
//   3D parallelism               ZeRO-Infinity
//   -------------------------    -------------------------
//   process grid (tp x pp x dp)  a world size
//   rewritten model (stage       the unmodified single-device model
//     split + tensor-parallel
//     layers + untied head)
//   per-axis batch plumbing      per-rank batches
//   states stay on GPU           states on NVMe, GPU nearly empty
#include <filesystem>
#include <iostream>

#include "core/engine.hpp"
#include "core/threed_engine.hpp"
#include "model/gpt.hpp"
#include "sim/report.hpp"
#include "scratch_dir.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

int main() {
  const ScratchDir scratch("zi_3d_vs_zero");
  const std::filesystem::path& dir = scratch.path;

  GptConfig mc;
  mc.vocab = 64;
  mc.seq = 16;
  mc.hidden = 32;
  mc.layers = 4;
  mc.heads = 4;

  auto batch_for = [&](int replica, std::vector<std::int32_t>& tokens,
                       std::vector<std::int32_t>& targets) {
    tokens.resize(2 * static_cast<std::size_t>(mc.seq));
    targets.resize(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = static_cast<std::int32_t>((replica * 7 + i * 3) % 63);
      targets[i] = static_cast<std::int32_t>((tokens[i] * 5 + 1) % 63);
    }
  };

  Table t({"system", "model code", "grid", "loss step1", "loss step10",
           "GPU state bytes/rank"});

  // --- 3D parallelism: tp=2 x pp=2 (dp=1) --------------------------------
  {
    GptConfig mc3d = mc;
    mc3d.tie_embeddings = false;  // pipeline cannot tie across stages
    ThreeDConfig cfg;
    cfg.tp = 2;
    cfg.pp = 2;
    cfg.loss_scale.init_scale = 1024.0f;
    cfg.adam.lr = 5e-3f;
    float first = 0, last = 0;
    std::uint64_t gpu_bytes = 0;
    run_ranks(4, [&](Communicator& comm) {
      ThreeDEngine engine(mc3d, comm, cfg);
      std::vector<std::int32_t> tokens, targets;
      batch_for(engine.dp_rank(), tokens, targets);
      for (int s = 0; s < 10; ++s) {
        const auto st = engine.train_step(tokens, targets);
        if (comm.rank() == 0) {
          if (s == 0) first = st.global_loss;
          last = st.global_loss;
        }
      }
      if (comm.rank() == 0) gpu_bytes = engine.gpu().stats().peak_used;
    });
    t.add_row({"3D parallelism", "rewritten (stages + TP + untied)",
               "tp=2 x pp=2", Table::num(first, 4), Table::num(last, 4),
               format_bytes(gpu_bytes)});
  }

  // --- ZeRO-Infinity: dp=4, unmodified model -----------------------------
  {
    EngineConfig cfg = preset_zero_infinity_nvme();
    cfg.nvme_dir = dir.string();
    cfg.loss_scale.init_scale = 1024.0f;
    cfg.adam.lr = 5e-3f;
    float first = 0, last = 0;
    std::uint64_t gpu_bytes = 0;
    AioEngine aio;
    run_ranks(4, [&](Communicator& comm) {
      Gpt model(mc);  // the single-device model, untouched
      ZeroEngine engine(model, comm, aio, cfg);
      std::vector<std::int32_t> tokens, targets;
      batch_for(comm.rank(), tokens, targets);
      for (int s = 0; s < 10; ++s) {
        const auto st = engine.train_step(tokens, targets);
        if (comm.rank() == 0) {
          if (s == 0) first = st.global_loss;
          last = st.global_loss;
        }
      }
      if (comm.rank() == 0) {
        gpu_bytes = engine.resources().accountant().peak(Tier::kGpu);
        gpu_bytes = std::max<std::uint64_t>(
            gpu_bytes, engine.resources().gpu().stats().peak_used);
      }
    });
    t.add_row({"ZeRO-Infinity", "unmodified", "dp=4", Table::num(first, 4),
               Table::num(last, 4), format_bytes(gpu_bytes)});
  }

  print_banner(std::cout,
               "3D parallelism vs ZeRO-Infinity — same transformer, 4 ranks");
  t.print(std::cout);
  std::cout << "\n(Losses differ because 3D's pipeline forces an untied head "
               "and a different data-parallel layout; both learn. The point "
               "is the middle columns: ZeRO-Infinity needed neither a grid "
               "nor a rewritten model, and its GPU footprint is transient "
               "working memory only.)\n";
  return 0;
}
