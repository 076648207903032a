// Rank-failure semantics of the abortable communicator.
//
// Invariants under test (DESIGN.md §6):
//   * a rank that dies via exception poisons the world — every peer blocked
//     in a barrier, collective, recv(), or capped send() unblocks with
//     CommAbortedError instead of hanging forever;
//   * a timed wait that expires blames a missing peer (oldest heartbeat),
//     poisons the world, and throws CommTimeoutError;
//   * run_ranks rethrows the original exception when exactly one rank had a
//     real failure, and aggregates into WorldError otherwise;
//   * the P2P channel cap blocks eager senders (abort-aware);
//   * the watchdog detects a seeded rank_stall by heartbeat age, without
//     any rank crashing;
//   * ZI_FAULTS rejects typo'd site names with a suggestion.
//
// Every world that *should* abort runs under a test-level watchdog: if the
// subsystem regresses into a hang, the test fails fast instead of eating
// the ctest timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "comm/clock_util.hpp"
#include "comm/inproc_transport.hpp"
#include "comm/world.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

using std::chrono::steady_clock;

/// Run a world on a helper thread and fail hard if it does not return
/// within `timeout_s` — "a rank exception never hangs the process" is the
/// acceptance criterion this guards.
WorldReport run_world_guarded(int num_ranks, const WorldOptions& options,
                              std::function<void(Communicator&)> fn,
                              int timeout_s = 60) {
  auto prom = std::make_shared<std::promise<WorldReport>>();
  std::future<WorldReport> fut = prom->get_future();
  std::thread([prom, num_ranks, options, fn = std::move(fn)] {
    try {
      prom->set_value(run_world(num_ranks, options, fn));
    } catch (...) {
      prom->set_exception(std::current_exception());
    }
  }).detach();
  if (fut.wait_for(std::chrono::seconds(timeout_s)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "run_world did not return within " << timeout_s
                  << " s — the abort path hung";
    std::abort();  // cannot cancel the wedged world; die loudly
  }
  return fut.get();
}

WorldOptions timed_options(double timeout_ms) {
  WorldOptions o;
  o.timeout_ms = timeout_ms;
  return o;
}

class CommFailureTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().clear(); }
};

// ---------------------------------------------------------------------------
// Poison wakeups.

TEST_F(CommFailureTest, RankExceptionUnblocksBarrierPeers) {
  const std::uint64_t aborts_before = comm_abort_count();
  const WorldReport rep =
      run_world_guarded(4, timed_options(30000.0), [](Communicator& comm) {
        if (comm.rank() == 2) throw Error("rank 2 dies before the barrier");
        comm.barrier();  // would hang forever without the poison
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.kind, WorldFailKind::kException);
  EXPECT_EQ(rep.culprit_rank, 2);
  ASSERT_EQ(rep.primary_ranks.size(), 1u);
  EXPECT_EQ(rep.primary_ranks[0], 2);
  // All three peers aborted out of the barrier (no zombies, no detach).
  EXPECT_EQ(rep.failed_ranks.size(), 4u);
  EXPECT_EQ(rep.detached, 0);
  EXPECT_GT(comm_abort_count(), aborts_before);
}

TEST_F(CommFailureTest, PoisonWakesCollectiveNotJustBarrier) {
  std::vector<float> buf(64, 1.0f);
  const WorldReport rep =
      run_world_guarded(3, timed_options(30000.0), [&](Communicator& comm) {
        if (comm.rank() == 0) throw OutOfMemoryError("rank 0 OOMs");
        std::vector<float> local(64, static_cast<float>(comm.rank()));
        comm.allreduce_sum(std::span<float>(local));
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.culprit_rank, 0);
  EXPECT_EQ(rep.primary_ranks.size(), 1u);
}

TEST_F(CommFailureTest, RecvWakesOnPoisonInsteadOfTimeout) {
  const auto t0 = steady_clock::now();
  const WorldReport rep =
      run_world_guarded(2, timed_options(30000.0), [](Communicator& comm) {
        if (comm.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          throw Error("sender dies without sending");
        }
        std::vector<int> buf(4);
        comm.recv(std::span<int>(buf), /*from=*/1);
      });
  const double elapsed_s =
      std::chrono::duration<double>(steady_clock::now() - t0).count();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.culprit_rank, 1);
  // The receiver woke via the poison, not the 30 s timeout.
  EXPECT_LT(elapsed_s, 10.0);
  bool receiver_aborted = false;
  for (std::size_t i = 0; i < rep.failed_ranks.size(); ++i) {
    if (rep.failed_ranks[i] != 0) continue;
    try {
      std::rethrow_exception(rep.exceptions[i]);
    } catch (const CommAbortedError& e) {
      receiver_aborted = true;
      EXPECT_EQ(e.op(), "recv");
      EXPECT_EQ(e.failing_rank(), 1);
    } catch (...) {
    }
  }
  EXPECT_TRUE(receiver_aborted);
}

// ---------------------------------------------------------------------------
// Timeouts.

TEST_F(CommFailureTest, BarrierTimeoutBlamesTheMissingRank) {
  const WorldReport rep =
      run_world_guarded(2, timed_options(300.0), [](Communicator& comm) {
        if (comm.rank() == 1) {
          // Never joins the barrier; stops heartbeating too.
          std::this_thread::sleep_for(std::chrono::milliseconds(1500));
          return;
        }
        comm.barrier();
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.kind, WorldFailKind::kTimeout);
  EXPECT_EQ(rep.culprit_rank, 1);
  ASSERT_EQ(rep.failed_ranks.size(), 1u);  // rank 1 returned "cleanly"
  EXPECT_EQ(rep.failed_ranks[0], 0);
  bool timed_out = false;
  try {
    std::rethrow_exception(rep.exceptions[0]);
  } catch (const CommTimeoutError& e) {
    timed_out = true;
    EXPECT_EQ(e.op(), "barrier");
    EXPECT_EQ(e.failing_rank(), 1);
    EXPECT_DOUBLE_EQ(e.timeout_ms(), 300.0);
  } catch (...) {
  }
  EXPECT_TRUE(timed_out);
}

TEST_F(CommFailureTest, RecvTimeoutBlamesTheSilentSender) {
  const WorldReport rep =
      run_world_guarded(2, timed_options(300.0), [](Communicator& comm) {
        if (comm.rank() == 1) return;  // exits without ever sending
        std::vector<int> buf(4);
        comm.recv(std::span<int>(buf), /*from=*/1);
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.kind, WorldFailKind::kTimeout);
  EXPECT_EQ(rep.culprit_rank, 1);
}

// ---------------------------------------------------------------------------
// run_ranks exception policy.

TEST_F(CommFailureTest, RunRanksRethrowsTheSingleOriginalException) {
  EXPECT_THROW(
      run_ranks(3, timed_options(30000.0),
                [](Communicator& comm) {
                  if (comm.rank() == 1) throw OutOfMemoryError("only rank 1");
                  comm.barrier();
                }),
      OutOfMemoryError);
}

TEST_F(CommFailureTest, RunRanksAggregatesMultipleRealFailures) {
  try {
    run_ranks(3, timed_options(30000.0), [](Communicator& comm) {
      if (comm.rank() == 0) throw Error("rank 0 fails");
      if (comm.rank() == 2) throw OutOfMemoryError("rank 2 fails");
      comm.barrier();
    });
    FAIL() << "expected WorldError";
  } catch (const WorldError& e) {
    EXPECT_EQ(e.failed_ranks().size(), 3u);  // 0, 2, and the aborted rank 1
    EXPECT_GE(e.first_failing_rank(), 0);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
}

TEST_F(CommFailureTest, RunRanksAggregatesPureTimeoutAborts) {
  // Nobody throws a "real" exception: rank 1 just never arrives. The
  // timeout victims are all comm errors, so run_ranks reports a WorldError
  // blaming rank 1.
  try {
    run_ranks(2, timed_options(300.0), [](Communicator& comm) {
      if (comm.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        return;
      }
      comm.barrier();
    });
    FAIL() << "expected WorldError";
  } catch (const WorldError& e) {
    EXPECT_EQ(e.first_failing_rank(), 1);
  }
}

// ---------------------------------------------------------------------------
// P2P channel caps.

TEST_F(CommFailureTest, CappedSendBlocksUntilReceiverDrains) {
  WorldOptions opts = timed_options(30000.0);
  opts.p2p_capacity_messages = 2;
  std::atomic<std::uint64_t> blocks{0};
  const WorldReport rep =
      run_world_guarded(2, opts, [&](Communicator& comm) {
        constexpr int kMessages = 8;
        if (comm.rank() == 0) {
          std::vector<int> payload(16);
          for (int m = 0; m < kMessages; ++m) {
            payload.assign(payload.size(), m);
            comm.send(std::span<const int>(payload), /*to=*/1, /*tag=*/m);
          }
          blocks = comm.traffic().p2p_send_blocks.load();
        } else {
          // Let the sender pile into the cap before draining.
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          std::vector<int> got(16);
          for (int m = 0; m < kMessages; ++m) {
            comm.recv(std::span<int>(got), /*from=*/0, /*tag=*/m);
            EXPECT_EQ(got[0], m);  // FIFO preserved through the blocking
          }
        }
      });
  EXPECT_TRUE(rep.ok);
  EXPECT_GE(blocks.load(), 1u);  // the cap actually engaged
}

TEST_F(CommFailureTest, ByteCapStillDeliversOversizedMessage) {
  WorldOptions opts = timed_options(30000.0);
  opts.p2p_capacity_bytes = 8;  // smaller than one payload
  const WorldReport rep = run_world_guarded(2, opts, [](Communicator& comm) {
    std::vector<int> buf(64, 7);
    if (comm.rank() == 0) {
      comm.send(std::span<const int>(buf), 1);
    } else {
      comm.recv(std::span<int>(buf), 0);
      EXPECT_EQ(buf[63], 7);
    }
  });
  EXPECT_TRUE(rep.ok);
}

TEST_F(CommFailureTest, PoisonUnblocksSenderStuckOnCap) {
  WorldOptions opts = timed_options(30000.0);
  opts.p2p_capacity_messages = 1;
  const WorldReport rep = run_world_guarded(2, opts, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> payload(4, 1);
      // First send fits; the second blocks on the cap (receiver never
      // drains) until rank 1's death poisons the world.
      comm.send(std::span<const int>(payload), 1);
      comm.send(std::span<const int>(payload), 1);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      throw Error("receiver dies without draining");
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.culprit_rank, 1);
  bool sender_aborted = false;
  for (std::size_t i = 0; i < rep.failed_ranks.size(); ++i) {
    if (rep.failed_ranks[i] != 0 || !rep.exceptions[i]) continue;
    try {
      std::rethrow_exception(rep.exceptions[i]);
    } catch (const CommAbortedError& e) {
      sender_aborted = true;
      EXPECT_EQ(e.op(), "send");
    } catch (...) {
    }
  }
  EXPECT_TRUE(sender_aborted);
}

// ---------------------------------------------------------------------------
// Fault injection: rank_crash / rank_stall / collective_delay.

TEST_F(CommFailureTest, RankCrashFiresAtExactPerRankOrdinal) {
  FaultInjector& inj = FaultInjector::instance();
  inj.configure("seed=7;rank_crash:error,rank=1,after=3,count=1");
  try {
    run_ranks(2, timed_options(30000.0), [](Communicator& comm) {
      for (int i = 0; i < 10; ++i) comm.barrier();
    });
    FAIL() << "expected the injected crash to surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank_crash"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
  // Rank 1 entered exactly 4 collectives (ordinals 0..3; the 4th fired);
  // rank 0 completed barriers until the poison stopped it.
  EXPECT_EQ(inj.stats(FaultSite::kRankCrash).errors, 1u);
}

TEST_F(CommFailureTest, SeededRankStallIsDetectedByHeartbeatAge) {
  FaultInjector::instance().configure(
      "seed=7;rank_stall:error,rank=1,after=2,count=1");
  WorldOptions opts;  // no timeout: detection must come from the watchdog
  opts.watchdog_interval_ms = 50.0;
  opts.stall_threshold_ms = 400.0;
  const WorldReport rep =
      run_world_guarded(2, opts, [](Communicator& comm) {
        for (int i = 0; i < 10; ++i) comm.barrier();
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.kind, WorldFailKind::kStall);
  EXPECT_EQ(rep.culprit_rank, 1);
  EXPECT_EQ(rep.detached, 0);  // the stall loop wakes on poison and aborts
  EXPECT_NE(rep.culprit_what.find("heartbeat"), std::string::npos);
}

TEST_F(CommFailureTest, BoundedStallIsJustSlowNotDead) {
  // delay-kind stall: the rank freezes 80 ms then resumes — a slow rank,
  // not a dead one. With a generous timeout the world completes.
  FaultInjector::instance().configure(
      "seed=7;rank_stall:delay,rank=1,after=1,count=2,delay_us=80000");
  const WorldReport rep =
      run_world_guarded(2, timed_options(30000.0), [](Communicator& comm) {
        for (int i = 0; i < 5; ++i) comm.barrier();
      });
  EXPECT_TRUE(rep.ok);
}

TEST_F(CommFailureTest, CollectiveDelayInjectsLatencyWithoutFailure) {
  FaultInjector::instance().configure(
      "seed=7;collective_delay:delay,p=1,delay_us=2000");
  const auto t0 = steady_clock::now();
  const WorldReport rep =
      run_world_guarded(2, WorldOptions{}, [](Communicator& comm) {
        for (int i = 0; i < 5; ++i) comm.barrier();
      });
  EXPECT_TRUE(rep.ok);
  // 2 ranks × 5 collectives × 2 ms ≥ 10 ms of injected latency per rank.
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_ms, 10.0);
  EXPECT_GE(FaultInjector::instance().stats(FaultSite::kCollectiveDelay).delays,
            10u);
}

// ---------------------------------------------------------------------------
// ZI_FAULTS validation.

TEST_F(CommFailureTest, TypoedSiteNameSuggestsTheRealOne) {
  try {
    // zilint:allow(fault-site-sync): the typo is the point of this test
    FaultInjector::instance().configure("aio_raed:error,p=0.1");
    FAIL() << "expected the typo to be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("aio_raed"), std::string::npos);
    EXPECT_NE(what.find("did you mean 'aio_read'"), std::string::npos);
    EXPECT_NE(what.find("rank_crash"), std::string::npos);  // lists sites
  }
}

TEST_F(CommFailureTest, NewSiteNamesRoundTrip) {
  EXPECT_EQ(fault_site_from_name("rank_crash"), FaultSite::kRankCrash);
  EXPECT_EQ(fault_site_from_name("rank_stall"), FaultSite::kRankStall);
  EXPECT_EQ(fault_site_from_name("collective_delay"),
            FaultSite::kCollectiveDelay);
  EXPECT_STREQ(fault_site_name(FaultSite::kRankStall), "rank_stall");
}

// A waiter that is still spinning when the barrier is poisoned must not
// miss the poison and park until its next wait slice: it sees the flag in
// the spin, or the park loop re-checks it under the mutex. Poison lands at
// delays from inside the spin budget to well past it (parked).
TEST_F(CommFailureTest, PoisonWhileAPeerSpinsReturnsWithinAWaitSlice) {
  using detail::AbortableBarrier;
  const std::chrono::microseconds delays[] = {
      std::chrono::microseconds(0), AbortableBarrier::kSpinBudget / 5,
      AbortableBarrier::kSpinBudget / 2, AbortableBarrier::kSpinBudget * 4};
  for (const auto delay : delays) {
    for (int trial = 0; trial < 20; ++trial) {
      AbortableBarrier barrier(2, nullptr, nullptr);
      std::atomic<bool> arriving{false};
      std::atomic<std::int64_t> returned_ns{0};
      detail::WaitOutcome outcome = detail::WaitOutcome::kOk;
      std::thread waiter([&] {
        arriving.store(true);
        // Ticked, with a deadline far away: a missed poison shows up as a
        // return only at the next kWaitSlice tick.
        outcome = barrier.arrive_and_wait(0, 0, 30000.0, true, nullptr,
                                          nullptr, nullptr);
        returned_ns.store(detail::comm_now_ns());
      });
      while (!arriving.load()) std::this_thread::yield();
      std::this_thread::sleep_for(delay);
      const std::int64_t poisoned_ns = detail::comm_now_ns();
      barrier.poison();
      waiter.join();
      EXPECT_EQ(outcome, detail::WaitOutcome::kPoisoned) << delay.count();
      const auto late = std::chrono::nanoseconds(returned_ns.load() -
                                                 poisoned_ns);
      EXPECT_LT(late, detail::kWaitSlice / 2)
          << "poison " << delay.count() << " us after arrival took "
          << std::chrono::duration<double, std::milli>(late).count()
          << " ms to wake the waiter";
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit abort + subgroup poisoning.

TEST_F(CommFailureTest, AbortWorldReachesSplitSubgroups) {
  const WorldReport rep =
      run_world_guarded(4, timed_options(30000.0), [](Communicator& comm) {
        Communicator sub = comm.split(comm.rank() % 2);
        if (comm.rank() == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          comm.abort_world("operator requested stop");
          return;
        }
        // Peers block on a *subgroup* barrier; the poison must traverse
        // the split tree to reach them.
        sub.barrier();
        sub.barrier();
        sub.barrier();
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.culprit_rank, 3);
  EXPECT_NE(rep.culprit_what.find("operator requested stop"),
            std::string::npos);
}

}  // namespace
}  // namespace zi
