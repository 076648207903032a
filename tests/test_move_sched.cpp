// TransferScheduler tests (src/move/sched.*) — the deterministic harness
// that locks down the priority stage.
//
// Ordering is asserted through the scheduler's backend seam: a recording
// FakeBackend whose completions happen exactly when the test says so. No
// sleeps, no timing asserts.
//
// Four layers under test:
//   1. priority — a latency fetch overtakes queued bulk spills, and the
//      starvation bound forces bulk through under latency pressure;
//   2. zero-length transfers complete without touching the backend;
//   3. faults — through a real DataMover + NvmeStore, injected aio_read
//      errors fail exactly the handles that drew them (no cross-handle
//      corruption), deterministically, and short reads stay bit-exact;
//   4. concurrency — many producers mixing classes round-trip bit-exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "aio/aio_engine.hpp"
#include "aio/nvme_store.hpp"
#include "common/error.hpp"
#include "mem/pinned_pool.hpp"
#include "move/data_mover.hpp"
#include "move/sched.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed * 7 + 3) & 0xff);
  }
  return v;
}

// ---------------------------------------------------------------------------
// The backend seam.

/// Recording backend: issue() appends the op and returns a
/// manually-completable status. The test completes ops with
/// complete_ok()/complete_error(), honouring the SchedBackend contract that
/// `done` never runs inside issue(). Single-threaded by design: issue() is
/// reentered only from this thread's own complete_*() calls.
class FakeBackend final : public SchedBackend {
 public:
  struct Issued {
    SchedOp op;
    AioStatus::Source source;
    bool completed = false;
  };

  [[nodiscard]] AioStatus issue(const SchedOp& op,
                                std::function<void()> done) override {
    Issued rec;
    rec.op = op;
    rec.source = AioStatus::make_source();
    rec.source.set_on_complete(std::move(done));
    AioStatus status = rec.source.status();
    issued.push_back(std::move(rec));
    return status;
  }

  /// Complete op `i` successfully. May reenter issue() (the scheduler pumps
  /// from the completion callback), growing `issued`.
  void complete_ok(std::size_t i) {
    issued[i].completed = true;
    issued[i].source.complete(nullptr, 0, issued[i].op.len);
  }
  void complete_error(std::size_t i, int error_code) {
    issued[i].completed = true;
    issued[i].source.complete(
        std::make_exception_ptr(Error("injected backend failure")),
        error_code, 0);
  }

  // deque: references stay valid while completions append new issues.
  std::deque<Issued> issued;
};

/// Backend + scheduler with coupled lifetime. Declare all data buffers
/// BEFORE the rig: its destructor completes every outstanding op, so the
/// scheduler's draining destructor terminates.
struct SchedRig {
  FakeBackend backend;
  TransferScheduler sched;

  explicit SchedRig(TransferScheduler::Config cfg) : sched(backend, cfg) {}
  ~SchedRig() {
    // Completing an op may make the scheduler issue more; the loop re-reads
    // the size so those are completed too.
    for (std::size_t i = 0; i < backend.issued.size(); ++i) {
      if (!backend.issued[i].completed) backend.complete_ok(i);
    }
  }
};

/// One backend request in flight at a time — the base configuration the
/// ordering tests build on.
TransferScheduler::Config serial_cfg() {
  TransferScheduler::Config c;
  c.max_inflight = 1;
  return c;
}

// ---------------------------------------------------------------------------
// 1. Priority classes and the starvation bound.

TEST(MoveSched, LatencyFetchOvertakesQueuedBulkSpill) {
  std::vector<std::byte> b0(1024), b1(1024), l0(1024);
  SchedRig rig(serial_cfg());

  // Bulk spill occupies the single slot; a second spill and then a latency
  // fetch queue behind it.
  const TransferScheduler::Ticket t0 = rig.sched.submit(
      Route::kNvmeSpill, TransferClass::kBulk, 0, b0.data(), b0.size());
  const TransferScheduler::Ticket t1 = rig.sched.submit(
      Route::kNvmeSpill, TransferClass::kBulk, 4096, b1.data(), b1.size());
  const TransferScheduler::Ticket tl = rig.sched.submit(
      Route::kNvmeFetch, TransferClass::kLatency, 8192, l0.data(), l0.size());
  ASSERT_EQ(rig.backend.issued.size(), 1u);
  EXPECT_EQ(rig.backend.issued[0].op.route, Route::kNvmeSpill);

  // Slot frees: the fetch overtakes the spill that arrived first.
  rig.backend.complete_ok(0);
  ASSERT_EQ(rig.backend.issued.size(), 2u);
  EXPECT_EQ(rig.backend.issued[1].op.route, Route::kNvmeFetch);
  EXPECT_TRUE(t0->done.load());
  EXPECT_FALSE(t1->done.load());

  rig.backend.complete_ok(1);
  ASSERT_EQ(rig.backend.issued.size(), 3u);
  EXPECT_EQ(rig.backend.issued[2].op.offset, 4096u);
  rig.backend.complete_ok(2);
  rig.sched.wait(t1);
  rig.sched.wait(tl);

  const TransferScheduler::Stats s = rig.sched.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.backend_ops, 3u);
  EXPECT_EQ(s.preemptions, 1u);
  EXPECT_EQ(s.starvation_yields, 0u);
  EXPECT_EQ(s.coalesced_transfers, 0u);
  // t1 sat queued across two completions before its issue.
  EXPECT_GT(s.queue_ns[static_cast<int>(TransferClass::kBulk)], 0u);
}

TEST(MoveSched, StarvationBoundForcesBulkThrough) {
  std::vector<std::byte> buf(7 * 1024);
  auto seg = [&](int i) { return buf.data() + i * 1024; };

  TransferScheduler::Config cfg = serial_cfg();
  cfg.starvation_bound = 2;
  SchedRig rig(cfg);

  // Bulk blocker, then four latency fetches and two more bulk spills queue.
  std::vector<TransferScheduler::Ticket> ts;
  ts.push_back(rig.sched.submit(Route::kNvmeSpill, TransferClass::kBulk,
                                0 * 4096, seg(0), 1024));
  for (int i = 0; i < 4; ++i) {
    ts.push_back(rig.sched.submit(Route::kNvmeFetch, TransferClass::kLatency,
                                  (1 + i) * 4096, seg(1 + i), 1024));
  }
  ts.push_back(rig.sched.submit(Route::kNvmeSpill, TransferClass::kBulk,
                                5 * 4096, seg(5), 1024));
  ts.push_back(rig.sched.submit(Route::kNvmeSpill, TransferClass::kBulk,
                                6 * 4096, seg(6), 1024));

  // Drive to completion one op at a time and record the issue order.
  std::vector<Route> order;
  for (std::size_t i = 0; i < rig.backend.issued.size(); ++i) {
    order.push_back(rig.backend.issued[i].op.route);
    rig.backend.complete_ok(i);
  }
  for (const auto& t : ts) rig.sched.wait(t);

  // Two latency issues, then the bound forces a bulk through, then the
  // remaining latency pair, then bulk drains.
  const std::vector<Route> want = {
      Route::kNvmeSpill, Route::kNvmeFetch, Route::kNvmeFetch,
      Route::kNvmeSpill, Route::kNvmeFetch, Route::kNvmeFetch,
      Route::kNvmeSpill};
  EXPECT_EQ(order, want);

  const TransferScheduler::Stats s = rig.sched.stats();
  EXPECT_EQ(s.starvation_yields, 1u);
  EXPECT_EQ(s.preemptions, 4u);
}

// ---------------------------------------------------------------------------
// 2. Zero-length transfers.

TEST(MoveSched, ZeroLengthTransfersCompleteWithoutBackend) {
  SchedRig rig(serial_cfg());
  const TransferScheduler::Ticket t = rig.sched.submit(
      Route::kNvmeFetch, TransferClass::kLatency, 0, nullptr, 0);
  EXPECT_TRUE(t->done.load());
  rig.sched.wait(t);
  EXPECT_EQ(rig.backend.issued.size(), 0u);
  EXPECT_EQ(rig.sched.stats().backend_ops, 0u);
}

// ---------------------------------------------------------------------------
// 3. Faults through a real DataMover + NvmeStore. num_workers=1 makes AIO
//    sub-requests execute in submission order, so ordinal-addressed fault
//    rules pick deterministic victims.

class MoveSchedIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_sched_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(MoveSchedIoTest, FetchFailuresHitExactlyTheDrawnHandles) {
  constexpr std::size_t kSeg = 4096;
  constexpr std::size_t kN = 8;

  std::vector<std::vector<std::byte>> src;
  for (unsigned i = 0; i < kN; ++i) src.push_back(pattern_bytes(kSeg, i));

  // Runs kN fetches under `after=1,count=2`: aio_read ordinals #1 and #2
  // fail. Returns each handle's error_code.
  auto run = [&](const fs::path& file) {
    AioConfig acfg;
    acfg.num_workers = 1;
    acfg.max_retries = 0;  // surface injected errors instead of masking them
    AioEngine aio(acfg);
    NvmeStore store(aio, file, 1 << 20);
    PinnedBufferPool pool(kSeg, 2);
    DataMover mover(store, pool);
    Extent e = store.allocate(kN * kSeg);
    for (std::size_t i = 0; i < kN; ++i) {
      mover.spill_nvme_sync(e, src[i], i * kSeg);
    }

    FaultInjector::instance().clear();
    FaultInjector::instance().configure(
        "seed=3;aio_read:error,after=1,count=2");
    std::vector<std::vector<std::byte>> dst(kN,
                                            std::vector<std::byte>(kSeg));
    std::vector<TransferHandle> hs;
    for (std::size_t i = 0; i < kN; ++i) {
      hs.push_back(mover.fetch_nvme(e, dst[i], i * kSeg));
    }
    mover.sched().drain();

    std::vector<int> errors;
    for (std::size_t i = 0; i < kN; ++i) {
      if (hs[i].ok()) {
        EXPECT_NO_THROW(hs[i].wait());
        errors.push_back(0);
      } else {
        EXPECT_THROW(hs[i].wait(), RetriesExhaustedError) << "handle " << i;
        errors.push_back(hs[i].error_code());
        EXPECT_NE(hs[i].error_code(), 0);
      }
    }
    // Cross-handle isolation: every handle that reported ok really holds
    // its own bytes, untouched by its failed neighbours.
    for (std::size_t i = 0; i < kN; ++i) {
      if (errors[i] == 0) {
        EXPECT_EQ(dst[i], src[i]) << "handle " << i;
      }
    }
    EXPECT_EQ(mover.sched().stats().backend_ops, 2 * kN);
    FaultInjector::instance().clear();
    return errors;
  };

  const std::vector<int> first = run(dir_ / "a.bin");
  std::vector<int> nonzero;
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i] != 0) nonzero.push_back(static_cast<int>(i));
  }
  EXPECT_EQ(nonzero, (std::vector<int>{1, 2}));

  // Same seed, same spec, fresh store: bitwise-identical outcome vector.
  const std::vector<int> second = run(dir_ / "b.bin");
  EXPECT_EQ(first, second);
}

TEST_F(MoveSchedIoTest, ShortReadsStayBitExact) {
  constexpr std::size_t kSeg = 4096;
  constexpr std::size_t kN = 6;

  AioEngine aio;  // default retries: shorts are resumed, not failed
  NvmeStore store(aio, dir_ / "short.bin", 1 << 20);
  PinnedBufferPool pool(kSeg, 2);
  DataMover mover(store, pool);
  Extent e = store.allocate(kN * kSeg);

  std::vector<std::vector<std::byte>> src;
  for (unsigned i = 0; i < kN; ++i) src.push_back(pattern_bytes(kSeg, i));
  for (std::size_t i = 0; i < kN; ++i) {
    mover.spill_nvme_sync(e, src[i], i * kSeg);
  }

  FaultInjector::instance().configure("seed=5;aio_read:short,p=1");
  std::vector<std::vector<std::byte>> dst(kN, std::vector<std::byte>(kSeg));
  std::vector<TransferHandle> hs;
  for (std::size_t i = 0; i < kN; ++i) {
    hs.push_back(mover.fetch_nvme(e, dst[i], i * kSeg));
  }
  mover.sched().drain();
  for (std::size_t i = 0; i < kN; ++i) {
    hs[i].wait();
    EXPECT_TRUE(hs[i].ok());
    EXPECT_EQ(dst[i], src[i]) << "handle " << i;
  }
  EXPECT_GT(FaultInjector::instance().stats(FaultSite::kAioRead).shorts, 0u);
}

// ---------------------------------------------------------------------------
// 4. Concurrency: many producers mixing classes while a reader polls the
//    stats. Run under TSan via the `concurrency` ctest label; correctness
//    signal is per-thread roundtrip bit-exactness.

TEST_F(MoveSchedIoTest, ConcurrentMixedProducersRoundtripBitExact) {
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  constexpr std::size_t kSeg = 8 * 1024;

  AioEngine aio;
  NvmeStore store(aio, dir_ / "stress.bin", 8 << 20);
  PinnedBufferPool pool(1 << 16, 4);
  TransferScheduler::Config cfg;
  cfg.max_inflight = 2;  // force queueing so the priority classes engage
  DataMover mover(store, pool, cfg);

  std::vector<Extent> extents;
  for (int t = 0; t < kThreads; ++t) extents.push_back(store.allocate(kSeg));

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)mover.stats();
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const auto src =
            pattern_bytes(kSeg, static_cast<unsigned>(t * 1000 + it));
        const TransferClass cls =
            (it % 2 == 0) ? TransferClass::kLatency : TransferClass::kBulk;
        TransferHandle w = mover.spill_nvme(extents[t], src, 0, cls);
        w.wait();
        EXPECT_TRUE(w.ok());
        std::vector<std::byte> back(kSeg);
        TransferHandle r = mover.fetch_nvme(extents[t], back, 0, cls);
        r.wait();
        EXPECT_EQ(back, src) << "thread " << t << " iter " << it;
      }
    });
  }
  for (std::thread& p : producers) p.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  mover.sched().drain();

  const DataMover::Stats s = mover.stats();
  EXPECT_EQ(s.route(Route::kNvmeSpill).transfers,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.route(Route::kNvmeFetch).transfers,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.sched.scheduled,
            2u * static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace zi
