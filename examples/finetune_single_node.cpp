// Democratizing large-model fine-tuning (Sec. 8.4 / Fig. 5c).
//
// The paper's motivating scenario: "fine-tuning GPT-3 would require over 8
// DGX-2 nodes with 3D parallelism to just fit the model, even though a
// single DGX-2 node has enough compute to fine-tune it."
//
// Part 1 uses the capacity model to answer, for one DGX-2 node, which
// strategies can even HOLD models from 1B to 1T parameters, and what
// throughput the timeline simulator predicts for the feasible ones.
//
// Part 2 runs the workflow for real at laptop scale: pretrain a GPT on a
// base task, then fine-tune it on a different task with ZeRO-Infinity CPU
// offload — demonstrating that the fine-tune phase continues from the
// pretrained fp16 weights through the partitioned state store.
#include <filesystem>
#include <iostream>

#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "sim/memory_model.hpp"
#include "sim/report.hpp"
#include "sim/timeline.hpp"
#include "scratch_dir.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

namespace {

void capacity_report() {
  using namespace zi::sim;
  const ClusterSpec cluster = dgx2_cluster();
  print_banner(std::cout,
               "Which strategies can fine-tune which model on ONE DGX-2?");
  Table t({"params", "Data parallel", "ZeRO-Offload", "ZeRO-3",
           "ZeRO-Inf-CPU", "ZeRO-Inf-NVMe", "Inf-NVMe TFlops/GPU"});
  for (const double p : {1e9, 13e9, 100e9, 175e9, 1e12}) {
    ModelShape shape = shape_for_params(p);
    shape.batch_per_gpu = 4;
    auto fits = [&](Strategy s) {
      return strategy_footprint(shape, s, cluster, 1).feasible
                 ? std::string("yes")
                 : std::string("-");
    };
    SimConfig sim;
    sim.model = shape;
    sim.strategy = Strategy::kZeroInfNvme;
    sim.nodes = 1;
    const SimResult r = simulate_iteration(sim, cluster);
    t.add_row({format_count(p), fits(Strategy::kDataParallel),
               fits(Strategy::kZeroOffload), fits(Strategy::kZero3),
               fits(Strategy::kZeroInfCpu), fits(Strategy::kZeroInfNvme),
               r.feasible ? Table::num(r.tflops_per_gpu, 1) : "-"});
  }
  t.print(std::cout);
  std::cout << "\nGPT-3-scale (175B) fine-tuning fits a single node only "
               "with ZeRO-Infinity.\n";
}

void make_task(int rank, int task, std::int64_t seq,
               std::vector<std::int32_t>& tokens,
               std::vector<std::int32_t>& targets) {
  tokens.resize(static_cast<std::size_t>(2 * seq));
  targets.resize(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::int32_t>((rank * 13 + i * 3) % 63);
    // Pretraining task: +3 shift. Fine-tuning task: *2 map.
    targets[i] = task == 0
                     ? static_cast<std::int32_t>((tokens[i] + 3) % 63)
                     : static_cast<std::int32_t>((tokens[i] * 2) % 63);
  }
}

void real_finetune_demo() {
  print_banner(std::cout,
               "Real pretrain -> fine-tune with ZeRO-Infinity (CPU offload, "
               "2 ranks)");
  GptConfig mc;
  mc.vocab = 64;
  mc.seq = 16;
  mc.hidden = 32;
  mc.layers = 2;
  mc.heads = 4;
  EngineConfig cfg = preset_zero_infinity_cpu();
  const ScratchDir nvme("zi_finetune");
  cfg.nvme_dir = nvme.path.string();
  cfg.adam.lr = 5e-3f;
  cfg.loss_scale.init_scale = 1024.0f;

  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;

    // Phase 1: "pretrain" on the base task.
    float pre_first = 0, pre_last = 0;
    for (int s = 0; s < 15; ++s) {
      make_task(comm.rank(), /*task=*/0, mc.seq, tokens, targets);
      const auto st = engine.train_step(tokens, targets);
      if (s == 0) pre_first = st.global_loss;
      pre_last = st.global_loss;
    }
    // Phase 2: fine-tune the SAME partitioned weights on a new task.
    float ft_first = 0, ft_last = 0;
    for (int s = 0; s < 15; ++s) {
      make_task(comm.rank(), /*task=*/1, mc.seq, tokens, targets);
      const auto st = engine.train_step(tokens, targets);
      if (s == 0) ft_first = st.global_loss;
      ft_last = st.global_loss;
    }
    if (comm.rank() == 0) {
      std::cout << "pretrain : loss " << pre_first << " -> " << pre_last
                << "\n";
      std::cout << "fine-tune: loss " << ft_first << " -> " << ft_last
                << "  (starts from pretrained weights, adapts to new task)\n";
      std::cout << "memory   : " << engine.memory_summary() << "\n";
    }
  });
}

}  // namespace

int main() {
  capacity_report();
  real_finetune_demo();
  return 0;
}
