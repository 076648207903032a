// ParamCoordinator tests: gather correctness, release semantics, the
// operator-sequence trace, prefetching, and gradient reduce-scatter — run
// inside a real multi-rank world.
#include <gtest/gtest.h>

#include <filesystem>

#include "comm/world.hpp"
#include "core/coordinator.hpp"
#include "model/gpt.hpp"
#include "model/linear.hpp"
#include "model/local_store.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_coord_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  EngineConfig nvme_config() const {
    EngineConfig cfg;
    cfg.stage = ZeroStage::kStage3;
    cfg.param_placement = Placement::kNvme;
    cfg.optimizer_placement = Placement::kCpu;
    cfg.grad_placement = Placement::kCpu;
    cfg.nvme_dir = dir_.string();
    return cfg;
  }

  fs::path dir_;
};

struct TwoLinears : public Module {
  TwoLinears() : Module("m") {
    a = std::make_unique<Linear>("m.a", 4, 4);
    b = std::make_unique<Linear>("m.b", 4, 4);
    register_child(a.get());
    register_child(b.get());
  }
  Tensor forward(const Tensor& x) override {
    return b->run_forward(a->run_forward(x));
  }
  Tensor backward(const Tensor& dy) override {
    return a->run_backward(b->run_backward(dy));
  }
  std::unique_ptr<Linear> a, b;
};

TEST_F(CoordinatorTest, GatherMaterializesExactInitValues) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(3, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 3);
    ParamCoordinator coord(store, res, comm, cfg);

    Parameter* w = model.a->weight();
    EXPECT_EQ(w->status(), Parameter::Status::kNotAvailable);
    coord.fetch(w, /*for_backward=*/false);
    EXPECT_EQ(w->status(), Parameter::Status::kAvailable);
    // Gathered values = fp16-rounded deterministic init.
    for (std::int64_t i = 0; i < w->numel(); ++i) {
      EXPECT_EQ(w->full_tensor().get(i), half(w->init_value(i)).to_float());
    }
    coord.release(w);
    EXPECT_EQ(w->status(), Parameter::Status::kNotAvailable);
    EXPECT_FALSE(w->full_tensor().defined());
  });
}

// A gathered parameter is an fp16 view of exactly one arena block of the
// padded fp16 size (256-byte rounded) holding the exact fp16 init values:
// no fp32 copy, no second block. Checked for the allgather path, the
// broadcast baseline and weighted shards, on a 3-rank world where no
// parameter divides evenly.
TEST_F(CoordinatorTest, GatheredParameterIsOneFp16ArenaBlock) {
  struct Mode {
    const char* name;
    bool bandwidth_centric;
    std::vector<double> weights;
  };
  const Mode modes[] = {{"allgather", true, {}},
                        {"broadcast", false, {}},
                        {"weighted", true, {1.0, 2.0, 4.0}}};
  AioEngine aio;
  for (const Mode& mode : modes) {
    EngineConfig cfg = nvme_config();
    cfg.bandwidth_centric = mode.bandwidth_centric;
    cfg.rank_weights = mode.weights;
    cfg.nvme_dir = (dir_ / mode.name).string();
    fs::create_directories(cfg.nvme_dir);
    run_ranks(3, [&](Communicator& comm) {
      Linear lin("lin", 40, 70);
      lin.finalize();
      RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, cfg.nvme_dir,
                        64 * 1024, 2);
      ModelStateStore store(res, cfg, lin.all_parameters(), comm.rank(), 3);
      ParamCoordinator coord(store, res, comm, cfg);
      for (Parameter* p : lin.all_parameters()) {
        const std::uint64_t before = res.gpu().used();
        coord.fetch(p, /*for_backward=*/false);
        const std::uint64_t padded_bytes =
            static_cast<std::uint64_t>(store.param_spec(p).padded_numel()) *
            sizeof(half);
        EXPECT_EQ(res.gpu().used() - before, (padded_bytes + 255) / 256 * 256)
            << mode.name << " " << p->name();
        const Tensor& full = p->full_tensor();
        EXPECT_EQ(full.dtype(), DType::kF16) << mode.name;
        EXPECT_EQ(full.numel(), p->numel());
        EXPECT_EQ(p->data(), full.data<half>());
        for (std::int64_t i = 0; i < p->numel(); ++i) {
          EXPECT_EQ(p->data()[i].bits(), half(p->init_value(i)).bits())
              << mode.name << " " << p->name() << "[" << i << "]";
        }
        coord.release(p, /*force=*/true);
        EXPECT_EQ(res.gpu().used(), before);
      }
    });
  }
}

TEST_F(CoordinatorTest, ReleaseReturnsArenaMemory) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    const auto baseline = res.gpu().used();
    for (Parameter* p : model.all_parameters()) coord.fetch(p, false);
    EXPECT_GT(res.gpu().used(), baseline);
    for (Parameter* p : model.all_parameters()) coord.release(p);
    EXPECT_EQ(res.gpu().used(), baseline);
  });
}

TEST_F(CoordinatorTest, HooksDriveFullForwardBackwardCycle) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);
    coord.begin_iteration();

    Tensor x({2, 4}, DType::kF32);
    x.fill(0.5f);
    Tensor y = model.forward(x);  // children via run_forward → hooks fire
    Tensor dy({2, 4}, DType::kF32);
    dy.fill(1.0f);
    model.backward(dy);

    // Post-backward: everything released, all grads reduced and stored.
    for (Parameter* p : model.all_parameters()) {
      EXPECT_EQ(p->status(), Parameter::Status::kNotAvailable) << p->name();
      EXPECT_FALSE(p->grad_tensor().defined()) << p->name();
    }
    EXPECT_EQ(coord.stats().grads_reduced, 4u);
    EXPECT_EQ(res.gpu().used(), 0u);
  });
}

TEST_F(CoordinatorTest, PrefetchKicksInAfterFirstIteration) {
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.prefetch_depth = 2;
  cfg.overlap_transfers = true;
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);

    auto one_pass = [&] {
      coord.begin_iteration();
      Tensor x({1, 4}, DType::kF32);
      x.fill(1.0f);
      Tensor y = model.forward(x);
      Tensor dy({1, 4}, DType::kF32);
      dy.fill(1.0f);
      model.backward(dy);
    };

    one_pass();  // records the trace
    EXPECT_EQ(coord.stats().prefetch_hits, 0u);
    one_pass();  // replays it with prefetching
    EXPECT_GT(coord.stats().prefetches_issued, 0u);
    EXPECT_GT(coord.stats().prefetch_hits, 0u);
    EXPECT_EQ(coord.stats().trace_invalidations, 0u);
  });
}

TEST_F(CoordinatorTest, PrefetchDisabledWhenOverlapOff) {
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.overlap_transfers = false;
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);
    for (int iter = 0; iter < 3; ++iter) {
      coord.begin_iteration();
      Tensor x({1, 4}, DType::kF32);
      x.fill(1.0f);
      Tensor y = model.forward(x);
      Tensor dy({1, 4}, DType::kF32);
      dy.fill(1.0f);
      model.backward(dy);
    }
    EXPECT_EQ(coord.stats().prefetches_issued, 0u);
  });
}

TEST_F(CoordinatorTest, DynamicWorkflowInvalidatesTrace) {
  // Iteration 1 fetches a then b; iteration 2 fetches b then a. The
  // coordinator must detect the divergence and re-record (Sec. 6.2).
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.prefetch_depth = 2;
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);

    auto fetch_release = [&](Linear& lin) {
      for (const auto& p : lin.own_parameters()) coord.fetch(p.get(), false);
      for (const auto& p : lin.own_parameters()) coord.release(p.get());
    };

    coord.begin_iteration();
    fetch_release(*model.a);
    fetch_release(*model.b);
    coord.begin_iteration();
    fetch_release(*model.b);  // diverges from the recorded trace
    fetch_release(*model.a);
    EXPECT_GT(coord.stats().trace_invalidations, 0u);
    // Third iteration follows the new trace cleanly.
    const auto invalidations = coord.stats().trace_invalidations;
    coord.begin_iteration();
    fetch_release(*model.b);
    fetch_release(*model.a);
    EXPECT_EQ(coord.stats().trace_invalidations, invalidations);
  });
}

TEST_F(CoordinatorTest, BroadcastModePrefetchAccountingStaysTruthful) {
  // Broadcast-mode (the ZeRO-Offload baseline) prefetch: only the owning
  // rank has a shard to pre-load, so non-owners must issue nothing — and
  // every counter must stay truthful: prefetches_issued == prefetch_hits +
  // prefetch_drops once nothing is in flight.
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.bandwidth_centric = false;  // broadcast-based retrieval
  cfg.optimizer_placement = Placement::kCpu;
  cfg.param_placement = Placement::kCpu;  // broadcast baseline predates NVMe
  cfg.prefetch_depth = 2;
  cfg.overlap_transfers = true;
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ASSERT_TRUE(store.broadcast_mode());
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);

    std::uint64_t owned = 0;
    for (Parameter* p : model.all_parameters()) {
      if (store.param_owner(p) == comm.rank()) ++owned;
    }

    auto one_pass = [&] {
      coord.begin_iteration();
      Tensor x({1, 4}, DType::kF32);
      x.fill(1.0f);
      Tensor y = model.forward(x);
      Tensor dy({1, 4}, DType::kF32);
      dy.fill(1.0f);
      model.backward(dy);
    };
    one_pass();  // records the trace
    one_pass();  // replays it with prefetching
    one_pass();

    const auto& st = coord.stats();
    if (owned == 0) {
      // A rank that owns nothing must not fabricate prefetch traffic.
      EXPECT_EQ(st.prefetches_issued, 0u);
      EXPECT_EQ(st.prefetch_hits, 0u);
      EXPECT_EQ(st.prefetch_drops, 0u);
    } else {
      EXPECT_GT(st.prefetches_issued, 0u);
      EXPECT_GT(st.prefetch_hits, 0u);
    }
    // Nothing may be issued beyond what the owner can serve, and with
    // begin_iteration() draining in-flight entries the ledger must close.
    coord.begin_iteration();  // drop anything still staged
    EXPECT_EQ(st.prefetch_hits + st.prefetch_drops, st.prefetches_issued);
  });
}

TEST_F(CoordinatorTest, GradReduceScatterSumsAcrossRanks) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(2, [&](Communicator& comm) {
    Linear lin("lin", 2, 2);
    lin.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, lin.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(lin);
    coord.begin_iteration();

    // Distinct inputs per rank; grads must equal the rank-sum.
    Tensor x({1, 2}, DType::kF32);
    x.set(0, comm.rank() == 0 ? 1.0f : 3.0f);
    x.set(1, 0.0f);
    Tensor y = lin.run_forward(x);
    Tensor dy({1, 2}, DType::kF32);
    dy.fill(1.0f);
    lin.run_backward(dy);

    // dW[0][j] = x[0] * dy[j] summed over ranks = (1 + 3) = 4.
    Parameter* w = lin.weight();
    const ShardSpec& spec = store.param_spec(w);
    std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
    store.load_grad_shard(w, shard);
    // w shape [2,2] → flat [w00, w01, w10, w11]; rank 0 holds {w00, w01}.
    if (comm.rank() == 0) {
      EXPECT_EQ(shard[0].to_float(), 4.0f);
      EXPECT_EQ(shard[1].to_float(), 4.0f);
    } else {
      EXPECT_EQ(shard[0].to_float(), 0.0f);  // x[1] = 0 on both ranks
      EXPECT_EQ(shard[1].to_float(), 0.0f);
    }
  });
}

// ---------------------------------------------------------------------------
// Buckets: once the trace replays, one collective gathers a matrix and the
// 1-D parameters fetched after it, and one reduces their gradients.

std::size_t padded_bytes(const ModelStateStore& store, Parameter* p) {
  const auto bytes = static_cast<std::size_t>(
                         store.param_spec(p).padded_numel()) *
                     sizeof(half);
  return (bytes + kArenaGrain - 1) / kArenaGrain * kArenaGrain;
}

// Replay the recorded trace [a.w, a.b, b.w, b.b]: the first fetch gathers
// a's bucket into one block holding exactly the two padded views, the
// second member's fetch only claims its view, and the block is freed at
// the last member's release.
TEST_F(CoordinatorTest, BucketSharesOneBlockFreedAtLastRelease) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    const std::vector<Parameter*> params = model.all_parameters();
    Parameter* w = model.a->weight();
    Parameter* b = params[1];
    ASSERT_EQ(params[0], w);
    coord.begin_iteration();
    for (Parameter* p : params) {
      coord.fetch(p, false);
      coord.release(p);
    }

    coord.begin_iteration();
    coord.fetch(w, false);
    EXPECT_EQ(res.gpu().used(), padded_bytes(store, w) + padded_bytes(store, b));
    EXPECT_EQ(b->status(), Parameter::Status::kNotAvailable);
    coord.fetch(b, false);
    EXPECT_EQ(res.gpu().used(), padded_bytes(store, w) + padded_bytes(store, b));
    EXPECT_EQ(reinterpret_cast<const std::byte*>(b->data()),
              reinterpret_cast<const std::byte*>(w->data()) +
                  padded_bytes(store, w));
    for (Parameter* p : {w, b}) {
      for (std::int64_t i = 0; i < p->numel(); ++i) {
        EXPECT_EQ(p->data()[i].bits(), half(p->init_value(i)).bits())
            << p->name() << "[" << i << "]";
      }
    }
    EXPECT_EQ(coord.stats().fetches, 6u);  // per parameter, not per bucket
    coord.release(w);
    EXPECT_EQ(res.gpu().used(), padded_bytes(store, w) + padded_bytes(store, b));
    coord.release(b);
    EXPECT_EQ(res.gpu().used(), 0u);
    EXPECT_EQ(coord.stats().trace_invalidations, 0u);
  });
}

// A trace that diverges inside a bucket drops the members not yet fetched:
// the block lives while a fetched member holds it, and the dropped member
// is gathered again, alone and exact, when it is fetched.
TEST_F(CoordinatorTest, TraceInvalidationMidBucketDropsUnfetchedViews) {
  AioEngine aio;
  const EngineConfig cfg = nvme_config();
  run_ranks(2, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    const std::vector<Parameter*> params = model.all_parameters();
    coord.begin_iteration();
    for (Parameter* p : params) {
      coord.fetch(p, false);
      coord.release(p);
    }

    coord.begin_iteration();
    coord.fetch(params[0], false);  // gathers [a.w, a.b]
    const std::uint64_t bucket = res.gpu().used();
    coord.fetch(params[2], false);  // the trace expected a.b
    EXPECT_EQ(coord.stats().trace_invalidations, 1u);
    EXPECT_EQ(res.gpu().used(), bucket + padded_bytes(store, params[2]));
    coord.release(params[0]);  // a.b's view was dropped: the block goes
    EXPECT_EQ(res.gpu().used(), padded_bytes(store, params[2]));
    coord.fetch(params[1], false);
    for (std::int64_t i = 0; i < params[1]->numel(); ++i) {
      EXPECT_EQ(params[1]->data()[i].bits(),
                half(params[1]->init_value(i)).bits());
    }
    coord.release(params[1]);
    coord.release(params[2]);
    EXPECT_EQ(res.gpu().used(), 0u);
  });
}

struct OddLinears : public Module {
  OddLinears() : Module("m") {
    a = std::make_unique<Linear>("m.a", 5, 7);
    b = std::make_unique<Linear>("m.b", 7, 3);
    register_child(a.get());
    register_child(b.get());
  }
  Tensor forward(const Tensor& x) override {
    return b->run_forward(a->run_forward(x));
  }
  Tensor backward(const Tensor& dy) override {
    return a->run_backward(b->run_backward(dy));
  }
  std::unique_ptr<Linear> a, b;
};

// Bucketed replay gathers the bits per-parameter recording gathered and
// stores the same reduced gradient shards, with fewer collectives: three
// ranks with weighted shards, with prefetch on and with overlap off (where
// a bucket's shards load into one send buffer).
TEST_F(CoordinatorTest, BucketedReplayMatchesRecordingOnWeightedShards) {
  AioEngine aio;
  for (const bool overlap : {true, false}) {
    EngineConfig cfg = nvme_config();
    cfg.rank_weights = {1.0, 2.0, 4.0};
    cfg.overlap_transfers = overlap;
    run_ranks(3, [&](Communicator& comm) {
      OddLinears model;
      model.finalize();
      RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_,
                        64 * 1024, 2);
      ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 3);
      ParamCoordinator coord(store, res, comm, cfg);
      coord.install(model);
      const std::vector<Parameter*> params = model.all_parameters();

      // One iteration: its collectives and every parameter's values and
      // reduced gradient shard.
      auto iteration = [&](std::uint64_t* collectives) {
        std::vector<std::vector<std::uint16_t>> bits;
        comm.barrier();
        const std::uint64_t before = comm.traffic().collectives.load();
        comm.barrier();
        coord.begin_iteration();
        Tensor x({2, 5}, DType::kF32);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          x.set(i, 0.25f * static_cast<float>(i % 7) - 0.5f +
                       static_cast<float>(comm.rank()));
        }
        Tensor y = model.a->run_forward(x);
        bits.emplace_back();
        for (Parameter* p : params) {
          coord.fetch(p, false);
          for (std::int64_t i = 0; i < p->numel(); ++i) {
            bits.back().push_back(p->data()[i].bits());
          }
        }
        for (Parameter* p : params) coord.release(p);
        Tensor z = model.b->run_forward(y);
        Tensor dz({2, 3}, DType::kF32);
        dz.fill(1.0f);
        model.backward(dz);
        comm.barrier();
        *collectives = comm.traffic().collectives.load() - before;
        comm.barrier();
        for (Parameter* p : params) {
          std::vector<half> shard(
              static_cast<std::size_t>(store.param_spec(p).shard_elems));
          store.load_grad_shard(p, shard);
          bits.emplace_back();
          for (const half h : shard) bits.back().push_back(h.bits());
        }
        return bits;
      };
      std::uint64_t recorded = 0, replayed = 0;
      const auto want = iteration(&recorded);
      const auto got = iteration(&replayed);
      EXPECT_EQ(got, want);
      EXPECT_LT(replayed, recorded);
      EXPECT_EQ(coord.stats().trace_invalidations, 0u);
      EXPECT_EQ(coord.stats().prefetches_issued == 0, !overlap);
      EXPECT_EQ(res.gpu().used(), 0u);
    });
  }
}

// The bucket rule on a traced GPT: cut before every matrix, so the
// gathers of a replayed step are the matrices plus the 1-D run before the
// first one, and the reduce-scatters are the matrices plus the final
// LayerNorm's gain and bias, which backward reduces first. Events and
// Stats::fetches stay per parameter.
TEST_F(CoordinatorTest, BucketRuleOnTracedGpt) {
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.prefetch_depth = 2;
  run_ranks(2, [&](Communicator& comm) {
    GptConfig mc;
    mc.vocab = 32;
    mc.seq = 8;
    mc.hidden = 16;
    mc.layers = 2;
    mc.heads = 2;
    Gpt model(mc);
    const std::vector<Parameter*> params = model.all_parameters();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, params, comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);
    std::vector<std::int32_t> tokens(8), targets(8);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = static_cast<std::int32_t>((comm.rank() + 3 * i) % 31);
      targets[i] = static_cast<std::int32_t>((tokens[i] + 1) % 31);
    }
    std::uint64_t collectives = 0, fetches = 0;
    for (int step = 0; step < 3; ++step) {
      comm.barrier();
      const std::uint64_t before = comm.traffic().collectives.load();
      const std::uint64_t fetched = coord.stats().fetches;
      comm.barrier();
      coord.begin_iteration();
      model.forward_loss(tokens, targets);
      model.backward_loss(1.0f);
      coord.end_iteration();
      comm.barrier();
      collectives = comm.traffic().collectives.load() - before;
      fetches = coord.stats().fetches - fetched;
      comm.barrier();
    }
    const std::vector<int>& trace = coord.trace();
    std::size_t matrices = 0, leading = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      Parameter* p = nullptr;
      for (Parameter* q : params) {
        if (q->id() == trace[i]) p = q;
      }
      ASSERT_NE(p, nullptr);
      if (p->shape().size() > 1) {
        ++matrices;
      } else if (matrices == 0) {
        leading = 1;
      }
    }
    std::size_t param_matrices = 0;
    for (const Parameter* p : params) {
      if (p->shape().size() > 1) ++param_matrices;
    }
    const std::size_t gathers = matrices + leading;
    const std::size_t reduces = param_matrices + 1;
    EXPECT_EQ(collectives, 2 * (gathers + reduces));  // two ranks, summed
    EXPECT_EQ(fetches, trace.size());
    EXPECT_LT(gathers, trace.size() / 2);
    EXPECT_EQ(coord.stats().trace_invalidations, 0u);
    EXPECT_EQ(res.gpu().used(), 0u);
  });
}

TEST_F(CoordinatorTest, RequiresStageThree) {
  AioEngine aio;
  EngineConfig cfg = nvme_config();
  cfg.stage = ZeroStage::kStage2;
  run_ranks(1, [&](Communicator& comm) {
    Linear lin("lin", 2, 2);
    lin.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, lin.all_parameters(), comm.rank(), 1);
    EXPECT_THROW(ParamCoordinator(store, res, comm, cfg), Error);
  });
}

}  // namespace
}  // namespace zi
