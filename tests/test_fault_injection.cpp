// Fault-injection subsystem tests.
//
// Three layers under test:
//   1. the injector itself — spec parsing, seeded determinism, stats;
//   2. the handling machinery — AioEngine retry-with-backoff, TierBuffer
//      OOM spill, pinned-pool stalls — each in isolation;
//   3. end-to-end masking — a ZeRO-3 + NVMe training run under injected
//      EIO/latency faults follows the *bit-identical* loss trajectory of a
//      fault-free run, because every transient failure is absorbed by a
//      retry or a placement spill, neither of which touches values.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <filesystem>
#include <vector>

#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "model/linear.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

/// Every test runs against the process-wide injector; reset it on both ends
/// so no schedule leaks across cases.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_faults_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The injector itself.

TEST_F(FaultInjectionTest, DisabledByDefaultAndDecisionIsEmpty) {
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(static_cast<bool>(fault_check(FaultSite::kAioRead)));
  // The guard must not even count the operation when disarmed.
  EXPECT_EQ(FaultInjector::instance().stats(FaultSite::kAioRead).ops, 0u);
}

TEST_F(FaultInjectionTest, SpecParsingRoundTrips) {
  auto& inj = FaultInjector::instance();
  inj.configure(
      "seed=42;aio_read:error,p=0.25;aio_write:short,p=0.1,count=3;"
      "nvme_alloc:error,after=10;pinned_acquire:delay,p=1,delay_us=200");
  EXPECT_TRUE(FaultInjector::armed());
  EXPECT_EQ(inj.seed(), 42u);

  const auto reads = inj.rules(FaultSite::kAioRead);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].kind, FaultKind::kError);
  EXPECT_DOUBLE_EQ(reads[0].probability, 0.25);

  const auto writes = inj.rules(FaultSite::kAioWrite);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].kind, FaultKind::kShort);
  EXPECT_EQ(writes[0].max_fires, 3);

  const auto allocs = inj.rules(FaultSite::kNvmeAllocate);
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_EQ(allocs[0].after, 10);

  const auto pinned = inj.rules(FaultSite::kPinnedAcquire);
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].kind, FaultKind::kDelay);
  EXPECT_EQ(pinned[0].delay_us, 200u);
}

TEST_F(FaultInjectionTest, MalformedSpecsThrow) {
  auto& inj = FaultInjector::instance();
  // zilint:allow(fault-site-sync): deliberately-unknown site must throw
  EXPECT_THROW(inj.configure("bogus_site:error,p=0.1"), Error);
  EXPECT_THROW(inj.configure("aio_read:explode"), Error);
  EXPECT_THROW(inj.configure("aio_read:error,p=nope"), Error);
  EXPECT_THROW(inj.configure("aio_read"), Error);
  EXPECT_FALSE(FaultInjector::armed());
}

TEST_F(FaultInjectionTest, SameSeedSameSchedule) {
  auto& inj = FaultInjector::instance();
  auto schedule = [&](std::uint64_t seed) {
    inj.clear();
    inj.configure("seed=" + std::to_string(seed) + ";aio_read:error,p=0.3");
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(fault_check(FaultSite::kAioRead).error);
    }
    return fires;
  };
  const auto a = schedule(7);
  const auto b = schedule(7);
  const auto c = schedule(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-200 false-failure odds
  // p=0.3 over 200 draws: the count is deterministic given the seed, and
  // far from both 0 and 200.
  const auto fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 120);
}

TEST_F(FaultInjectionTest, AfterAndCountGateFiring) {
  auto& inj = FaultInjector::instance();
  inj.configure("nvme_alloc:error,after=3,count=2");
  std::vector<bool> fires;
  for (int i = 0; i < 8; ++i) {
    fires.push_back(fault_check(FaultSite::kNvmeAllocate).error);
  }
  const std::vector<bool> expect = {false, false, false, true,
                                    true,  false, false, false};
  EXPECT_EQ(fires, expect);
  EXPECT_EQ(inj.stats(FaultSite::kNvmeAllocate).ops, 8u);
  EXPECT_EQ(inj.stats(FaultSite::kNvmeAllocate).errors, 2u);
  EXPECT_EQ(inj.total_fires(), 2u);
}

// ---------------------------------------------------------------------------
// AioEngine retry-with-backoff.

TEST_F(FaultInjectionTest, TransientIoErrorsAreRetriedInvisibly) {
  AioConfig acfg;
  acfg.max_retries = 4;
  acfg.retry_backoff_us = 1;
  AioEngine aio(acfg);
  AioFile* f = aio.open(dir_ / "retry.bin");

  // First two write syscalls fail with EIO; retries must mask them.
  FaultInjector::instance().configure("aio_write:error,after=0,count=2");
  std::vector<std::byte> data(4096, std::byte{0x5A});
  aio.write(f, 0, data);
  FaultInjector::instance().clear();

  std::vector<std::byte> back(4096);
  aio.read(f, 0, back);
  EXPECT_TRUE(back == data);
  EXPECT_GE(aio.stats().retries, 2u);
  EXPECT_EQ(aio.stats().retries_exhausted, 0u);
}

TEST_F(FaultInjectionTest, ShortTransfersAreCompletedByTheInnerLoop) {
  AioEngine aio;
  AioFile* f = aio.open(dir_ / "short.bin");
  std::vector<std::byte> data(1 << 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 131);
  }
  // Every write syscall transfers only part of the request; the engine's
  // transfer loop must keep going without consuming a retry.
  FaultInjector::instance().configure("aio_write:short,p=1");
  aio.write(f, 0, data);
  FaultInjector::instance().clear();

  std::vector<std::byte> back(data.size());
  aio.read(f, 0, back);
  EXPECT_TRUE(back == data);
  EXPECT_EQ(aio.stats().retries_exhausted, 0u);
}

TEST_F(FaultInjectionTest, ExhaustedRetriesSurfaceTypedErrorAndErrno) {
  AioConfig acfg;
  acfg.max_retries = 1;
  acfg.retry_backoff_us = 1;
  AioEngine aio(acfg);
  AioFile* f = aio.open(dir_ / "dead.bin");
  f->resize(4096);

  FaultInjector::instance().configure("aio_read:error,after=0");  // persistent
  std::vector<std::byte> buf(4096);
  AioStatus st = aio.submit_read(f, 0, buf);
  EXPECT_THROW(st.wait(), RetriesExhaustedError);
  // The non-throwing accessors report the same failure.
  EXPECT_TRUE(st.done());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error_code(), EIO);
  EXPECT_LT(st.bytes_transferred(), buf.size());
  FaultInjector::instance().clear();
  EXPECT_GE(aio.stats().retries_exhausted, 1u);

  FaultInjector::instance().configure("aio_read:error,after=0");
  try {
    aio.read(f, 0, buf);
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_EQ(e.attempts(), acfg.max_retries + 1);
  }
}

// ---------------------------------------------------------------------------
// Graceful OOM degradation (TierBuffer spill).

TEST_F(FaultInjectionTest, ArenaOomSpillsToCpuWhenEnabled) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2,
                    DeviceArena::Mode::kReal, 0, /*spill_on_oom=*/true);
  FaultInjector::instance().configure("arena_alloc:error,after=0,count=1");

  TierBuffer buf(res, Tier::kGpu, 4096);
  EXPECT_EQ(buf.tier(), Tier::kCpu);
  EXPECT_EQ(buf.requested_tier(), Tier::kGpu);
  EXPECT_TRUE(buf.spilled());
  EXPECT_EQ(res.accountant().spills(Tier::kGpu), 1u);
  EXPECT_EQ(res.accountant().used(Tier::kCpu), 4096u);
  EXPECT_EQ(res.accountant().used(Tier::kGpu), 0u);

  // The spilled buffer is fully functional.
  std::vector<std::byte> data(4096, std::byte{0x42});
  buf.store(data);
  std::vector<std::byte> back(4096);
  buf.load(back);
  EXPECT_TRUE(back == data);

  // The count=1 budget is spent: the next GPU buffer lands on-tier.
  TierBuffer ok(res, Tier::kGpu, 4096);
  EXPECT_EQ(ok.tier(), Tier::kGpu);
  EXPECT_FALSE(ok.spilled());
}

TEST_F(FaultInjectionTest, ArenaOomIsFatalWhenSpillDisabled) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  ASSERT_FALSE(res.spill_on_oom());
  FaultInjector::instance().configure("arena_alloc:error,after=0,count=1");
  EXPECT_THROW(TierBuffer(res, Tier::kGpu, 4096), OutOfMemoryError);
}

TEST_F(FaultInjectionTest, NvmeExhaustionSpillsToCpu) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2,
                    DeviceArena::Mode::kReal, 0, /*spill_on_oom=*/true);
  FaultInjector::instance().configure("nvme_alloc:error,after=0,count=1");
  TierBuffer buf(res, Tier::kNvme, 4096);
  EXPECT_EQ(buf.tier(), Tier::kCpu);
  EXPECT_EQ(buf.requested_tier(), Tier::kNvme);
  EXPECT_EQ(res.accountant().spills(Tier::kNvme), 1u);
}

TEST_F(FaultInjectionTest, PinnedExhaustionMakesTryAcquireFail) {
  PinnedBufferPool pool(4096, 4);
  FaultInjector::instance().configure("pinned_acquire:error,after=0,count=2");
  EXPECT_FALSE(pool.try_acquire().has_value());
  EXPECT_FALSE(pool.try_acquire().has_value());
  // Budget spent: the pool really does have buffers.
  auto lease = pool.try_acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->size(), 4096u);
}

// ---------------------------------------------------------------------------
// Prefetch exception-safety: a prefetched NVMe read whose retries are
// exhausted must not leak its coordinator map entry or its pinned staging
// lease. Pre-fix, the entry stayed in `prefetch_` after wait() threw: the
// pinned buffer was held forever, and the next trace divergence re-threw
// the stale error out of drop_prefetches().

TEST_F(FaultInjectionTest, FailedPrefetchReleasesSlotAndRecovers) {
  AioConfig acfg;
  acfg.num_workers = 1;
  acfg.max_retries = 1;
  acfg.retry_backoff_us = 1;
  AioEngine aio(acfg);

  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.param_placement = Placement::kNvme;
  cfg.optimizer_placement = Placement::kCpu;
  cfg.grad_placement = Placement::kCpu;
  cfg.prefetch_depth = 2;
  cfg.overlap_transfers = true;
  cfg.nvme_dir = dir_.string();

  // Parameter ids must be unique across the tree → one root finalize().
  struct TwoLinears : Module {
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

  run_ranks(1, [&](Communicator& comm) {
    TwoLinears model;
    model.finalize();
    const std::vector<Parameter*> params = model.all_parameters();
    ASSERT_EQ(params.size(), 4u);
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, params, comm.rank(), 1);
    ParamCoordinator coord(store, res, comm, cfg);
    const std::size_t pinned_total = res.pinned().num_buffers();

    // Iteration 1 records the trace [a.w, a.b, b.w, b.b], which replays as
    // the buckets [a.w, a.b] and [b.w, b.b].
    coord.begin_iteration();
    for (Parameter* p : params) {
      coord.fetch(p, false);
      coord.release(p);
    }

    // Iteration 2 replays it. The first two reads (the synchronous shard
    // loads of a's bucket) pass; every later read — the prefetch of b's
    // bucket issued behind them — fails persistently, so its statuses end
    // in error.
    coord.begin_iteration();
    FaultInjector::instance().configure("aio_read:error,after=2");
    coord.fetch(params[0], false);
    coord.fetch(params[1], false);
    coord.release(params[0]);
    coord.release(params[1]);
    EXPECT_EQ(coord.stats().prefetches_issued, 1u);

    // Consuming the poisoned prefetch surfaces the typed error...
    EXPECT_THROW(coord.fetch(params[2], false), RetriesExhaustedError);
    // ...but the slot was consumed: counted as a drop, not left in flight.
    EXPECT_EQ(coord.stats().prefetch_drops, 1u);
    EXPECT_EQ(coord.stats().prefetch_hits, 0u);

    // With the fault gone the retry falls back to a clean synchronous
    // load (pre-fix the leaked entry made this re-throw).
    FaultInjector::instance().clear();
    coord.fetch(params[2], false);
    EXPECT_EQ(params[2]->status(), Parameter::Status::kAvailable);
    for (std::int64_t i = 0; i < params[2]->numel(); ++i) {
      EXPECT_EQ(params[2]->full_tensor().get(i),
                half(params[2]->init_value(i)).to_float());
    }
    coord.release(params[2]);

    // Accounting truth invariant with nothing left in flight, and every
    // pinned staging lease back in the pool.
    EXPECT_GE(coord.stats().trace_invalidations, 1u);
    EXPECT_EQ(coord.stats().prefetch_hits + coord.stats().prefetch_drops,
              coord.stats().prefetches_issued);
    EXPECT_EQ(res.pinned().available(), pinned_total);
  });
  FaultInjector::instance().clear();
}

// ---------------------------------------------------------------------------
// End-to-end masking: the ISSUE acceptance scenario. ZeRO-3 + NVMe under
// p=0.05 EIO + latency faults on every NVMe op must follow the bit-exact
// trajectory of the fault-free run.

std::vector<float> run_zero3_nvme(const fs::path& dir, int steps,
                                  const std::string& faults) {
  GptConfig mc;
  mc.vocab = 32;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 2;
  mc.heads = 2;
  mc.tie_embeddings = true;
  mc.checkpoint_activations = true;

  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir / "swap").string();

  AioConfig acfg;
  // Deep retry budget so the masked run cannot plausibly exhaust it:
  // P(11 consecutive injected failures) = 0.05^11.
  acfg.max_retries = 10;
  acfg.retry_backoff_us = 1;

  std::vector<float> losses(static_cast<std::size_t>(steps));
  AioEngine aio(acfg);
  if (!faults.empty()) FaultInjector::instance().configure(faults);
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens, targets;
    for (int s = 0; s < steps; ++s) {
      const std::int64_t n = 2 * mc.seq;
      tokens.resize(static_cast<std::size_t>(n));
      targets.resize(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        const auto v = (comm.rank() * 31 + s * 7 + i * 3) % (mc.vocab - 1);
        tokens[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(v);
        targets[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>((v * 3 + 3) % (mc.vocab - 1));
      }
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0) losses[static_cast<std::size_t>(s)] = st.global_loss;
    }
  });
  return losses;
}

TEST_F(FaultInjectionTest, InjectedNvmeFaultsAreFullyMaskedOverFiftySteps) {
  constexpr int kSteps = 50;
  const auto clean = run_zero3_nvme(dir_ / "clean", kSteps, "");

  const auto faulty = run_zero3_nvme(
      dir_ / "faulty", kSteps,
      "seed=1234;aio_read:error,p=0.05;aio_write:error,p=0.05;"
      "aio_read:delay,p=0.05,delay_us=50;aio_write:delay,p=0.05,delay_us=50");

  const auto read_stats = FaultInjector::instance().stats(FaultSite::kAioRead);
  const auto write_stats =
      FaultInjector::instance().stats(FaultSite::kAioWrite);
  FaultInjector::instance().clear();
  // The schedule really injected faults...
  EXPECT_GT(read_stats.errors + write_stats.errors, 0u);
  EXPECT_GT(read_stats.delays + write_stats.delays, 0u);
  // ...and the trajectory is still bit-exact.
  ASSERT_EQ(clean.size(), faulty.size());
  for (std::size_t s = 0; s < clean.size(); ++s) {
    EXPECT_EQ(clean[s], faulty[s]) << "step " << s;
  }
}

TEST_F(FaultInjectionTest, InjectedArenaOomSpillPreservesTrajectory) {
  GptConfig mc;
  mc.vocab = 32;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 2;
  mc.heads = 2;
  mc.tie_embeddings = true;
  mc.checkpoint_activations = true;

  std::array<std::uint64_t, 2> spills{};
  auto run = [&](const fs::path& dir, bool faults) {
    EngineConfig cfg = preset_zero3();
    cfg.nvme_dir = (dir / "swap").string();
    cfg.spill_on_oom = true;
    std::vector<float> losses;
    AioEngine aio;
    if (faults) {
      // The first three GPU-arena allocations (shard buffers created during
      // engine construction) OOM and spill to CPU.
      FaultInjector::instance().configure("arena_alloc:error,after=0,count=3");
    }
    run_ranks(2, [&](Communicator& comm) {
      Gpt model(mc);
      ZeroEngine engine(model, comm, aio, cfg);
      std::vector<std::int32_t> tokens(16, 1), targets(16, 2);
      for (int s = 0; s < 4; ++s) {
        const auto st = engine.train_step(tokens, targets);
        if (comm.rank() == 0) losses.push_back(st.global_loss);
      }
      spills[static_cast<std::size_t>(comm.rank())] =
          engine.resources().accountant().total_spills();
    });
    FaultInjector::instance().clear();
    return losses;
  };

  const auto clean = run(dir_ / "clean", false);
  EXPECT_EQ(spills[0] + spills[1], 0u);
  const auto spilled = run(dir_ / "spilled", true);
  // All three injected OOMs were absorbed (which rank absorbed each one
  // depends on construction interleaving; the sum is deterministic).
  EXPECT_EQ(spills[0] + spills[1], 3u);
  EXPECT_EQ(clean, spilled);
}

}  // namespace
}  // namespace zi
