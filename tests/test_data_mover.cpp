// Unified data-movement layer tests (src/move).
//
// Four layers under test:
//   1. the Route vocabulary — names, tier mapping, async classification;
//   2. DataMover — staging (pinned-or-heap single decision point), the six
//      routes' counters, async NVMe handles and their wait/latency
//      accounting;
//   3. DoubleBufferPipeline — the reuse-safety ordering invariant (a buffer
//      receives item c+1 only after its item c-1 write-backs drained) and
//      quiescence on exceptional exits;
//   4. fault interaction — aio_read / pinned_acquire faults under the new
//      layer must leak no staging lease and recover bit-exact, and
//      TierBuffer's slice validation must throw typed BoundsError (incl.
//      overflow-wrapping offsets) instead of corrupting the arena.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "core/tier_buffer.hpp"
#include "move/data_mover.hpp"
#include "move/pipeline.hpp"
#include "move/staging.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

class DataMoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_move_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed * 7 + 3) & 0xff);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Route vocabulary.

TEST(Route, NamesAndTierMapping) {
  EXPECT_STREQ(route_name(Route::kGpuFetch), "gpu>host");
  EXPECT_STREQ(route_name(Route::kGpuSpill), "host>gpu");
  EXPECT_STREQ(route_name(Route::kCpuFetch), "cpu>host");
  EXPECT_STREQ(route_name(Route::kCpuSpill), "host>cpu");
  EXPECT_STREQ(route_name(Route::kNvmeFetch), "nvme>host");
  EXPECT_STREQ(route_name(Route::kNvmeSpill), "host>nvme");

  EXPECT_EQ(fetch_route(Tier::kGpu), Route::kGpuFetch);
  EXPECT_EQ(fetch_route(Tier::kCpu), Route::kCpuFetch);
  EXPECT_EQ(fetch_route(Tier::kNvme), Route::kNvmeFetch);
  EXPECT_EQ(spill_route(Tier::kGpu), Route::kGpuSpill);
  EXPECT_EQ(spill_route(Tier::kCpu), Route::kCpuSpill);
  EXPECT_EQ(spill_route(Tier::kNvme), Route::kNvmeSpill);
}

TEST(Route, OnlyNvmeRoutesAreAsync) {
  EXPECT_FALSE(route_is_async(Route::kGpuFetch));
  EXPECT_FALSE(route_is_async(Route::kGpuSpill));
  EXPECT_FALSE(route_is_async(Route::kCpuFetch));
  EXPECT_FALSE(route_is_async(Route::kCpuSpill));
  EXPECT_TRUE(route_is_async(Route::kNvmeFetch));
  EXPECT_TRUE(route_is_async(Route::kNvmeSpill));
}

// ---------------------------------------------------------------------------
// Staging: the pinned-or-heap decision and lease lifecycle.

TEST_F(DataMoverTest, StagePrefersPinnedAndFallsBackToHeap) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, /*pinned_bytes=*/4096,
                    /*pinned_count=*/2);
  DataMover& mover = res.mover();

  // Fits and free → pinned (the window is the requested size, not the
  // buffer's full capacity).
  StagingLease a = mover.stage(1000);
  EXPECT_TRUE(a.pinned());
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(a.bytes().size(), 1000u);

  // Too large for any pool buffer → heap, pool untouched.
  StagingLease big = mover.stage(8192);
  EXPECT_FALSE(big.pinned());
  EXPECT_EQ(big.bytes().size(), 8192u);
  EXPECT_EQ(res.pinned().available(), 1u);

  // Pool exhausted → heap.
  StagingLease b = mover.stage(4096);
  EXPECT_TRUE(b.pinned());
  StagingLease c = mover.stage(16);
  EXPECT_FALSE(c.pinned());

  const DataMover::Stats s = mover.stats();
  EXPECT_EQ(s.staged_pinned, 2u);
  EXPECT_EQ(s.staged_heap, 2u);

  // Dropping leases returns pinned buffers to the pool.
  a.release();
  EXPECT_EQ(res.pinned().available(), 1u);
  b = StagingLease();
  EXPECT_EQ(res.pinned().available(), 2u);
}

// ---------------------------------------------------------------------------
// Routes move bytes and count them.

TEST_F(DataMoverTest, NvmeRoundtripThroughAsyncHandles) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();

  const auto src = pattern_bytes(6000, 1);
  Extent e = res.nvme().allocate(src.size());

  TransferHandle w = mover.spill_nvme(e, src);
  EXPECT_EQ(w.route(), Route::kNvmeSpill);
  EXPECT_EQ(w.bytes(), src.size());
  w.wait();
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(w.error_code(), 0);

  std::vector<std::byte> back(src.size());
  TransferHandle r = mover.fetch_nvme(e, back);
  r.wait();
  EXPECT_TRUE(back == src);

  // Sync helpers land on the same route counters.
  std::vector<std::byte> back2(src.size());
  mover.fetch_nvme_sync(e, back2);
  EXPECT_TRUE(back2 == src);

  const DataMover::Stats s = mover.stats();
  EXPECT_EQ(s.route(Route::kNvmeSpill).bytes, src.size());
  EXPECT_EQ(s.route(Route::kNvmeSpill).transfers, 1u);
  EXPECT_EQ(s.route(Route::kNvmeFetch).bytes, 2 * src.size());
  EXPECT_EQ(s.route(Route::kNvmeFetch).transfers, 2u);
  EXPECT_EQ(s.total_transfers(), 3u);
  EXPECT_GE(s.total_seconds(), 0.0);
}

TEST_F(DataMoverTest, RejectedTransfersLeaveStatsUntouched) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();

  Extent small = res.nvme().allocate(4096);
  Extent released = res.nvme().allocate(4096);
  released.release();
  std::vector<std::byte> buf(8192);
  const std::span<std::byte> big(buf);
  const std::span<std::byte> fits = big.first(4096);

  // 8 KiB against a 4 KiB extent, a 4 KiB range starting past its middle,
  // and any range on a released extent: on an NVMe and a KV route each.
  EXPECT_THROW((void)mover.fetch_nvme(small, big), Error);
  EXPECT_THROW((void)mover.spill_nvme(small, fits, 2048), Error);
  EXPECT_THROW((void)mover.fetch_kv(small, fits, 2048), Error);
  EXPECT_THROW((void)mover.spill_kv(small, big), Error);
  EXPECT_THROW((void)mover.fetch_nvme(released, fits), Error);
  EXPECT_THROW(mover.spill_nvme_sync(released, fits), Error);
  EXPECT_THROW((void)mover.fetch_kv(released, fits), Error);
  EXPECT_THROW((void)mover.spill_kv(released, fits), Error);

  const DataMover::Stats s = mover.stats();
  EXPECT_EQ(s.total_bytes(), 0u);
  EXPECT_EQ(s.total_transfers(), 0u);
  EXPECT_EQ(s.sched.scheduled, 0u);
  EXPECT_EQ(aio.stats().requests, 0u);
}

TEST_F(DataMoverTest, MemcpyRoutesAreCountedPerRoute) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();

  const auto src = pattern_bytes(512, 2);
  std::vector<std::byte> tier(512), host(512);
  mover.spill_copy(Route::kCpuSpill, tier.data(), src);
  mover.fetch_copy(Route::kCpuFetch, host, tier.data());
  EXPECT_TRUE(host == src);

  std::vector<std::byte> gpu(256);
  mover.spill_copy(Route::kGpuSpill, gpu.data(),
                   std::span<const std::byte>(src.data(), 256));

  const DataMover::Stats s = mover.stats();
  EXPECT_EQ(s.route(Route::kCpuSpill).bytes, 512u);
  EXPECT_EQ(s.route(Route::kCpuFetch).bytes, 512u);
  EXPECT_EQ(s.route(Route::kGpuSpill).bytes, 256u);
  EXPECT_EQ(s.total_bytes(), 512u + 512u + 256u);
}

TEST(TransferHandleT, DefaultHandleIsTriviallyComplete) {
  TransferHandle h;
  EXPECT_TRUE(h.done());
  EXPECT_TRUE(h.ok());
  EXPECT_EQ(h.error_code(), 0);
  h.wait();  // no-op, must not throw
  h.wait();  // wait() is idempotent

  TransferHandle moved = std::move(h);
  moved.wait();
}

// ---------------------------------------------------------------------------
// TierBuffer slice validation: typed BoundsError instead of corruption.

TEST_F(DataMoverTest, TierBufferRejectsOutOfBoundsSlices) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);

  const auto src = pattern_bytes(64, 3);
  std::vector<std::byte> dst(64);
  for (const Tier tier : {Tier::kCpu, Tier::kNvme}) {
    TierBuffer buf(res, tier, 256);
    // In-bounds at the very end is fine.
    buf.store(src, 192);
    buf.load(dst, 192);
    EXPECT_TRUE(dst == src);

    // One byte past the end, offset past the end, and an offset chosen so
    // that offset + size wraps std::uint64_t back in-bounds — all typed.
    EXPECT_THROW(buf.store(src, 193), BoundsError);
    EXPECT_THROW(buf.load(dst, 300), BoundsError);
    const std::uint64_t wrap = ~std::uint64_t{0} - 16;  // offset+64 wraps
    EXPECT_THROW(buf.store(src, wrap), BoundsError);
    EXPECT_THROW(buf.load(dst, wrap), BoundsError);
    EXPECT_THROW(buf.store_async(src, 256), BoundsError);
    EXPECT_THROW(buf.load_async(dst, 256), BoundsError);
    // BoundsError is an Error subtype: existing catch sites still work.
    EXPECT_THROW(buf.load(dst, 300), Error);
  }
}

// ---------------------------------------------------------------------------
// DoubleBufferPipeline: reuse safety and quiescence.

struct ProbeBuf {
  std::int64_t loaded_item = -1;   // item whose load was issued into us
  std::int64_t pending_store = -1; // item whose store is still in flight
};

TEST(DoubleBufferPipelineT, StoresDrainBeforeBufferReuse) {
  DoubleBufferPipeline<ProbeBuf> pipe;
  std::vector<std::string> log;
  const std::int64_t n = 5;

  pipe.run(
      n, /*overlap=*/true,
      [&](std::int64_t c, ProbeBuf& b) {
        // Reuse safety: the pipeline must have drained this buffer's
        // previous write-back before overwriting it with item c.
        EXPECT_EQ(b.pending_store, -1)
            << "issue_load(" << c << ") while item " << b.pending_store
            << "'s store is still pending";
        b.loaded_item = c;
        log.push_back("load:" + std::to_string(c));
      },
      [&](ProbeBuf& b) {
        if (b.loaded_item >= 0) {
          log.push_back("wait_load:" + std::to_string(b.loaded_item));
        }
      },
      [&](std::int64_t c, ProbeBuf& b) {
        EXPECT_EQ(b.loaded_item, c);
        b.pending_store = c;
        log.push_back("compute:" + std::to_string(c));
      },
      [&](ProbeBuf& b) {
        if (b.pending_store >= 0) {
          log.push_back("wait_store:" + std::to_string(b.pending_store));
          b.pending_store = -1;
        }
      });

  // Every item computed exactly once, in order, and every store drained.
  for (std::int64_t c = 0; c < n; ++c) {
    EXPECT_EQ(std::count(log.begin(), log.end(),
                         "compute:" + std::to_string(c)),
              1);
  }
  EXPECT_EQ(pipe.buffer(0).pending_store, -1);
  EXPECT_EQ(pipe.buffer(1).pending_store, -1);
  // Overlap really happened: item 1's load was issued before item 0's
  // compute finished consuming the pipeline head.
  const auto pos = [&](const std::string& s) {
    return std::find(log.begin(), log.end(), s) - log.begin();
  };
  EXPECT_LT(pos("load:1"), pos("compute:0"));
}

TEST(DoubleBufferPipelineT, SequentialWhenOverlapDisabled) {
  DoubleBufferPipeline<ProbeBuf> pipe;
  std::vector<std::string> log;
  pipe.run(
      3, /*overlap=*/false,
      [&](std::int64_t c, ProbeBuf& b) {
        b.loaded_item = c;
        log.push_back("load:" + std::to_string(c));
      },
      [&](ProbeBuf&) {},
      [&](std::int64_t c, ProbeBuf&) {
        log.push_back("compute:" + std::to_string(c));
      },
      [&](ProbeBuf& b) { b.pending_store = -1; });
  // Strict load → compute → load → compute order: no lookahead.
  const std::vector<std::string> want = {"load:0", "compute:0", "load:1",
                                         "compute:1", "load:2", "compute:2"};
  EXPECT_EQ(log, want);
}

TEST(DoubleBufferPipelineT, QuiescesAllBuffersWhenComputeThrows) {
  DoubleBufferPipeline<ProbeBuf> pipe;
  int waits_after_throw = 0;
  bool thrown = false;
  EXPECT_THROW(
      pipe.run(
          4, /*overlap=*/true,
          [&](std::int64_t c, ProbeBuf& b) { b.loaded_item = c; },
          [&](ProbeBuf&) {
            if (thrown) ++waits_after_throw;
          },
          [&](std::int64_t c, ProbeBuf& b) {
            b.pending_store = c;
            if (c == 1) {
              thrown = true;
              throw std::runtime_error("compute failed");
            }
          },
          [&](ProbeBuf& b) {
            if (thrown) ++waits_after_throw;
            b.pending_store = -1;
          }),
      std::runtime_error);
  // The quiescence path waited out both buffers' loads AND stores.
  EXPECT_EQ(waits_after_throw, 4);
  EXPECT_EQ(pipe.buffer(0).pending_store, -1);
  EXPECT_EQ(pipe.buffer(1).pending_store, -1);
}

// ---------------------------------------------------------------------------
// Fault interaction: no staged lease leaks, bit-exact recovery.

TEST_F(DataMoverTest, PinnedAcquireFaultFallsBackToHeapWithoutLeaking) {
  AioEngine aio;
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();
  const std::size_t pool_total = res.pinned().num_buffers();

  FaultInjector::instance().configure("pinned_acquire:error,after=0,count=2");
  {
    StagingLease lease = mover.stage(1024);
    EXPECT_FALSE(lease.pinned());  // fault forced the heap fallback
    const auto src = pattern_bytes(1024, 4);
    std::memcpy(lease.bytes().data(), src.data(), src.size());
    Extent e = res.nvme().allocate(1024);
    mover.spill_nvme(e, lease.bytes()).wait();
    std::vector<std::byte> back(1024);
    mover.fetch_nvme_sync(e, back);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), src.begin()));
  }
  FaultInjector::instance().clear();
  EXPECT_EQ(res.pinned().available(), pool_total);
  EXPECT_GE(mover.stats().staged_heap, 1u);
}

TEST_F(DataMoverTest, TransientReadFaultsAreRetriedBitExact) {
  AioConfig acfg;
  acfg.max_retries = 4;
  acfg.retry_backoff_us = 1;
  AioEngine aio(acfg);
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();

  const auto src = pattern_bytes(4096, 5);
  Extent e = res.nvme().allocate(src.size());
  mover.spill_nvme_sync(e, src);

  // Two transient EIOs: both are absorbed by the engine's retry loop under
  // the mover, and the payload comes back bit-exact.
  FaultInjector::instance().configure("aio_read:error,after=0,count=2");
  StagingLease lease = mover.stage(src.size());
  EXPECT_TRUE(lease.pinned());
  TransferHandle h = mover.fetch_nvme(e, lease.bytes());
  h.wait();
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(std::equal(src.begin(), src.end(), lease.bytes().begin()));
  FaultInjector::instance().clear();
}

TEST_F(DataMoverTest, ExhaustedReadFaultThrowsAndLeaksNoLease) {
  AioConfig acfg;
  acfg.max_retries = 1;
  acfg.retry_backoff_us = 1;
  AioEngine aio(acfg);
  RankResources res(0, aio, 1 << 20, 1 << 20, dir_, 4096, 2);
  DataMover& mover = res.mover();
  const std::size_t pool_total = res.pinned().num_buffers();

  const auto src = pattern_bytes(2048, 6);
  Extent e = res.nvme().allocate(src.size());
  mover.spill_nvme_sync(e, src);

  FaultInjector::instance().configure("aio_read:error,after=0");
  {
    StagingLease lease = mover.stage(src.size());
    TransferHandle h = mover.fetch_nvme(e, lease.bytes());
    EXPECT_THROW(h.wait(), RetriesExhaustedError);
    EXPECT_TRUE(h.done());
    EXPECT_FALSE(h.ok());
    EXPECT_NE(h.error_code(), 0);
    // The caller's drop path: destroying lease + handle after the failed
    // wait must return the pinned buffer.
  }
  EXPECT_EQ(res.pinned().available(), pool_total);

  // Fault lifted: the same extent re-reads clean and bit-exact.
  FaultInjector::instance().clear();
  std::vector<std::byte> back(src.size());
  mover.fetch_nvme(e, back).wait();
  EXPECT_TRUE(back == src);
  EXPECT_EQ(res.pinned().available(), pool_total);
}

}  // namespace
}  // namespace zi
