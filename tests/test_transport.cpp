// Transport conformance: the same Communicator protocol over both backends.
//
// Every behavioral contract of the comm layer — collective values and
// deterministic fp32 rank-order accumulation, p2p caps and tag delivery,
// split() subgroups, poison/timeout abort semantics, fault-site behavior,
// result payloads — is asserted twice via TEST_P, once per TransportKind.
// The in-process backend is the reference implementation; the out-of-process
// backend (forked rank subprocesses, Unix-socket control plane, shared-memory
// data plane) must be observationally identical, including failure blame and
// bit-exact reduction results.
//
// Rank bodies THROW on mismatch instead of using EXPECT_*: under the proc
// backend the body runs in a forked child whose gtest state never reaches
// the parent — a thrown error, by contrast, travels through the WorldReport
// on both backends.
//
// The headline scenario at the bottom upgrades test_elastic's injected-crash
// story to a *real* `kill -9`: a rank process SIGKILLs itself mid-step
// (proc_kill fault site), the supervisor detects the death via socket EOF,
// restarts the survivors from the newest intact checkpoint, and the resumed
// loss trajectory is bit-identical to an in-process control run resumed from
// a copy of the same checkpoint.
//
// Satellite regression tests ride along: WorldOptions::from_env must reject
// suffixed/garbage numerics ("ZI_P2P_CAP_BYTES=4gb" used to silently parse
// as 0), and a failed checkpoint write must not leak "<path>.tmp".
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/inproc_transport.hpp"
#include "comm/world.hpp"
#include "core/ckpt_io.hpp"
#include "core/elastic.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"
#include "scalar_oracles.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

/// Rank-body assertion that survives the process boundary: throw, don't
/// EXPECT (a child's gtest failure state is lost at _Exit).
#define RANK_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      throw std::runtime_error(std::string("rank assertion failed: ") +     \
                               #cond + " at line " +                        \
                               std::to_string(__LINE__));                   \
    }                                                                       \
  } while (0)

/// Run a world on a helper thread and fail hard on a hang — "an abort never
/// wedges the supervisor" is the invariant every failure test guards.
WorldReport run_world_guarded(int num_ranks, const WorldOptions& options,
                              std::function<void(Communicator&)> fn,
                              int timeout_s = 120) {
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
    std::abort();
  }
  return fut.get();
}

class TransportConformance
    : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    if (kTsan && GetParam() == TransportKind::kProc) {
      GTEST_SKIP() << "fork-based transport is not TSan-instrumentable; "
                      "the proc lane runs unsanitized in CI";
    }
  }
  void TearDown() override { FaultInjector::instance().clear(); }

  WorldOptions opts(double timeout_ms = 0.0) const {
    WorldOptions o;
    o.transport = GetParam();
    o.timeout_ms = timeout_ms;
    return o;
  }
};

std::string param_name(
    const ::testing::TestParamInfo<TransportKind>& info) {
  return info.param == TransportKind::kProc ? "proc" : "inproc";
}

// ---------------------------------------------------------------------------
// Collectives and data plane.

TEST_P(TransportConformance, CollectivesProduceExactValues) {
  const WorldReport wr =
      run_world_guarded(4, opts(), [](Communicator& comm) {
        const int n = comm.size();
        const int r = comm.rank();
        RANK_REQUIRE(n == 4);

        std::vector<float> v{r + 0.25f, r * 2.0f};
        comm.allreduce_sum(std::span<float>(v));
        float s0 = 0.0f, s1 = 0.0f;
        for (int i = 0; i < n; ++i) {
          s0 += i + 0.25f;
          s1 += i * 2.0f;
        }
        RANK_REQUIRE(v[0] == s0 && v[1] == s1);

        std::vector<int> b(3, r == 1 ? 7 : 0);
        comm.broadcast(std::span<int>(b), 1);
        RANK_REQUIRE(b[0] == 7 && b[1] == 7 && b[2] == 7);

        const std::vector<int> send{r * 10, r * 10 + 1};
        std::vector<int> recv(2 * static_cast<std::size_t>(n));
        comm.allgather(std::span<const int>(send), std::span<int>(recv));
        for (int i = 0; i < n; ++i) {
          RANK_REQUIRE(recv[2 * static_cast<std::size_t>(i)] == i * 10);
          RANK_REQUIRE(recv[2 * static_cast<std::size_t>(i) + 1] ==
                       i * 10 + 1);
        }

        std::vector<float> contrib(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          contrib[static_cast<std::size_t>(i)] = r + i * 0.5f;
        }
        std::vector<float> chunk(1);
        comm.reduce_scatter_sum(std::span<const float>(contrib),
                                std::span<float>(chunk));
        float expect = 0.0f;
        for (int i = 0; i < n; ++i) expect += i + r * 0.5f;
        RANK_REQUIRE(chunk[0] == expect);

        RANK_REQUIRE(comm.allreduce_max(r * 1.5) == (n - 1) * 1.5);
        RANK_REQUIRE(comm.allreduce_sum_scalar(1.0) ==
                     static_cast<double>(n));
        RANK_REQUIRE(comm.allreduce_or(r == 2));
        RANK_REQUIRE(!comm.allreduce_or(false));

        std::vector<int> gsend{r + 100};
        std::vector<int> grecv(static_cast<std::size_t>(n));
        comm.gather(std::span<const int>(gsend), std::span<int>(grecv), 2);
        if (r == 2) {
          for (int i = 0; i < n; ++i) {
            RANK_REQUIRE(grecv[static_cast<std::size_t>(i)] == i + 100);
          }
        }
        comm.barrier();
      });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
  EXPECT_TRUE(wr.failed_ranks.empty());
}

// One rank's fp16 contribution: −0.0 on every rank (sums to +0.0),
// subnormals, values whose sum overflows to ±inf, and ordinary values.
half reduction_input(int rank, std::size_t i) {
  const auto r = static_cast<std::uint32_t>(rank);
  switch (i % 6) {
    case 0:
      return half(-0.0f);
    case 1:
      return half::from_bits(static_cast<std::uint16_t>(
          ((i + r) % 2 ? 0x8000u : 0u) | (1u + (i * 37 + r * 11) % 1023)));
    case 2:
      return half(rank % 2 == 0 ? 40000.0f : 30000.0f);
    case 3:
      return half(-40000.0f);
    default:
      return half(static_cast<float>((i * 2654435761u + r * 40503u) % 20001) /
                      997.0f -
                  10.0f);
  }
}

std::vector<half> reduction_inputs(int rank, std::size_t n) {
  std::vector<half> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = reduction_input(rank, i);
  return v;
}

// The fp16 reduce-scatter and allreduce against the per-element rank-order
// loop, on message sizes across whole and partial eight-element groups.
TEST_P(TransportConformance, HalfReductionsMatchPerElementOracle) {
  for (const int world : {2, 3, 4}) {
    const WorldReport wr =
        run_world_guarded(world, opts(), [](Communicator& comm) {
          const int n = comm.size();
          const auto un = static_cast<std::size_t>(n);
          constexpr std::size_t kB = 2048;
          for (const std::size_t chunk :
               {std::size_t{1}, std::size_t{7}, kB - 1, kB, kB + 1,
                2 * kB + 5}) {
            std::vector<std::vector<half>> peers;
            for (int r = 0; r < n; ++r) {
              peers.push_back(reduction_inputs(r, chunk * un));
            }
            const std::vector<half>& mine =
                peers[static_cast<std::size_t>(comm.rank())];

            std::vector<half> shard(chunk);
            comm.reduce_scatter_sum<half>(mine, shard);
            const std::vector<half> want_shard = oracle::rank_order_sum(
                peers, static_cast<std::size_t>(comm.rank()) * chunk, chunk);
            for (std::size_t i = 0; i < chunk; ++i) {
              RANK_REQUIRE(shard[i].bits() == want_shard[i].bits());
            }

            // Allreduce slices are total·r/n .. total·(r+1)/n: lengths
            // either side of the block edge once the total is uneven.
            std::vector<half> all = mine;
            all.resize(all.size() - (chunk > 1 ? 1 : 0));
            const std::vector<half> want_all =
                oracle::rank_order_sum(peers, 0, all.size());
            comm.allreduce_sum<half>(all);
            for (std::size_t i = 0; i < all.size(); ++i) {
              RANK_REQUIRE(all[i].bits() == want_all[i].bits());
            }
          }
        });
    EXPECT_TRUE(wr.ok) << "world " << world << ": "
                       << (wr.errors.empty() ? "?" : wr.errors.front());
  }
}

// A segmented collective returns the bits of one one-segment call per
// segment: unequal segments, a 1-element one, and one past a 2048 edge.
TEST_P(TransportConformance, SegmentedCollectivesMatchOneSegmentCalls) {
  for (const int world : {2, 3}) {
    const WorldReport wr =
        run_world_guarded(world, opts(), [](Communicator& comm) {
          const auto n = static_cast<std::size_t>(comm.size());
          const std::vector<std::size_t> pieces = {5, 1, 300, 2049};

          // Allgather: this rank's pieces back to back.
          std::vector<half> send;
          std::vector<std::vector<half>> gathered, want;
          for (std::size_t s = 0; s < pieces.size(); ++s) {
            const std::vector<half> piece =
                reduction_inputs(comm.rank() + static_cast<int>(s), pieces[s]);
            send.insert(send.end(), piece.begin(), piece.end());
            gathered.emplace_back(pieces[s] * n);
            want.emplace_back(pieces[s] * n);
            comm.allgather<half>(piece, want.back());
          }
          std::vector<std::span<half>> recv(gathered.begin(), gathered.end());
          comm.allgather<half>(send, recv);
          for (std::size_t s = 0; s < pieces.size(); ++s) {
            for (std::size_t i = 0; i < gathered[s].size(); ++i) {
              RANK_REQUIRE(gathered[s][i].bits() == want[s][i].bits());
            }
          }

          // Reduce-scatter: one full buffer per segment, back to back.
          std::vector<half> full;
          std::vector<std::vector<half>> shards, want_shards;
          for (std::size_t s = 0; s < pieces.size(); ++s) {
            const std::vector<half> buf = reduction_inputs(
                comm.rank() + 7 * static_cast<int>(s), pieces[s] * n);
            full.insert(full.end(), buf.begin(), buf.end());
            shards.emplace_back(pieces[s]);
            want_shards.emplace_back(pieces[s]);
            comm.reduce_scatter_sum<half>(buf, want_shards.back());
          }
          std::vector<std::span<half>> out(shards.begin(), shards.end());
          comm.reduce_scatter_sum<half>(full, out);
          for (std::size_t s = 0; s < pieces.size(); ++s) {
            for (std::size_t i = 0; i < pieces[s]; ++i) {
              RANK_REQUIRE(shards[s][i].bits() == want_shards[s][i].bits());
            }
          }
        });
    EXPECT_TRUE(wr.ok) << "world " << world << ": "
                       << (wr.errors.empty() ? "?" : wr.errors.front());
  }
}

// Segment lists that disagree across ranks give unequal contributions,
// which throw on every rank.
TEST_P(TransportConformance, SegmentedCollectivesRejectUnequalSendSizes) {
  for (const bool gather : {true, false}) {
    const WorldReport wr =
        run_world_guarded(2, opts(), [gather](Communicator& comm) {
          const std::vector<std::size_t> pieces =
              comm.rank() == 0 ? std::vector<std::size_t>{4, 3}
                               : std::vector<std::size_t>{3, 3};
          std::vector<std::vector<half>> bufs;
          std::size_t send_elems = 0;
          for (const std::size_t p : pieces) {
            bufs.emplace_back(gather ? 2 * p : p);
            send_elems += gather ? p : 2 * p;
          }
          std::vector<std::span<half>> segs(bufs.begin(), bufs.end());
          const std::vector<half> send(send_elems, half(1.0f));
          if (gather) {
            comm.allgather<half>(send, segs);
          } else {
            comm.reduce_scatter_sum<half>(send, segs);
          }
        });
    EXPECT_FALSE(wr.ok);
    ASSERT_EQ(wr.failed_ranks.size(), 2u);
    const std::string want = gather ? "allgather: unequal send sizes"
                                    : "reduce_scatter: unequal send sizes";
    for (const std::string& e : wr.errors) {
      EXPECT_NE(e.find(want), std::string::npos) << e;
    }
  }
}

// Unequal contributions throw on every rank, as in allgather, instead of
// reading past the shorter peer's buffer.
TEST_P(TransportConformance, ReduceScatterRejectsUnequalSendSizes) {
  const WorldReport wr =
      run_world_guarded(2, opts(), [](Communicator& comm) {
        const std::size_t chunk = comm.rank() == 0 ? 4 : 3;
        std::vector<half> send(2 * chunk, half(1.0f));
        std::vector<half> recv(chunk);
        comm.reduce_scatter_sum<half>(send, recv);
      });
  EXPECT_FALSE(wr.ok);
  ASSERT_EQ(wr.failed_ranks.size(), 2u);
  for (const std::string& e : wr.errors) {
    EXPECT_NE(e.find("reduce_scatter: unequal send sizes"), std::string::npos)
        << e;
  }
}

TEST_P(TransportConformance, P2pRingDeliversTaggedPayloads) {
  const WorldReport wr =
      run_world_guarded(3, opts(), [](Communicator& comm) {
        const int n = comm.size();
        const int r = comm.rank();
        const int to = (r + 1) % n;
        const int from = (r + n - 1) % n;
        std::vector<std::int32_t> out(5, r * 11);
        comm.send(std::span<const std::int32_t>(out), to, /*tag=*/5);
        std::vector<std::int32_t> in(5, -1);
        comm.recv(std::span<std::int32_t>(in), from, /*tag=*/5);
        for (const std::int32_t x : in) RANK_REQUIRE(x == from * 11);
      });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
}

TEST_P(TransportConformance, CappedSendBlocksUntilReceiverDrains) {
  WorldOptions o = opts(30000.0);
  o.p2p_capacity_bytes = 64;  // one 64-byte message fills the channel
  const WorldReport wr = run_world_guarded(2, o, [](Communicator& comm) {
    constexpr std::size_t kFloats = 16;  // 64 bytes
    if (comm.rank() == 0) {
      std::vector<float> m1(kFloats, 1.0f), m2(kFloats, 2.0f);
      comm.send(std::span<const float>(m1), 1);
      // The queue already holds 64 bytes, so this send must block until
      // the (deliberately slow) receiver drains the first message.
      comm.send(std::span<const float>(m2), 1);
      RANK_REQUIRE(comm.traffic().p2p_send_blocks.load() >= 1);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      std::vector<float> in(kFloats);
      comm.recv(std::span<float>(in), 0);
      RANK_REQUIRE(in[0] == 1.0f);
      comm.recv(std::span<float>(in), 0);
      RANK_REQUIRE(in[0] == 2.0f);
    }
  });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
}

TEST_P(TransportConformance, ByteCapStillDeliversOversizedMessage) {
  WorldOptions o = opts(30000.0);
  o.p2p_capacity_bytes = 16;  // smaller than the single message below
  const WorldReport wr = run_world_guarded(2, o, [](Communicator& comm) {
    std::vector<float> buf(16);  // 64 bytes > 16-byte cap, queue empty
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<float>(i);
      }
      comm.send(std::span<const float>(buf), 1);
      RANK_REQUIRE(comm.traffic().p2p_send_blocks.load() == 0);
    } else {
      comm.recv(std::span<float>(buf), 0);
      RANK_REQUIRE(buf[15] == 15.0f);
    }
  });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
}

TEST_P(TransportConformance, SplitSubgroupsReduceIndependently) {
  const WorldReport wr =
      run_world_guarded(4, opts(), [](Communicator& comm) {
        const int r = comm.rank();
        Communicator sub = comm.split(r % 2);
        RANK_REQUIRE(sub.size() == 2);
        RANK_REQUIRE(sub.global_rank() == r);
        RANK_REQUIRE(sub.rank() == r / 2);  // ascending world order
        std::vector<float> v{static_cast<float>(r)};
        sub.allreduce_sum(std::span<float>(v));
        // color 0 holds world ranks {0,2}, color 1 holds {1,3}
        RANK_REQUIRE(v[0] == (r % 2 == 0 ? 2.0f : 4.0f));
        sub.barrier();
        comm.barrier();
      });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
}

TEST_P(TransportConformance, SetResultPayloadsReachTheSupervisor) {
  const WorldReport wr =
      run_world_guarded(3, opts(), [](Communicator& comm) {
        comm.set_result("payload-" + std::to_string(comm.rank()));
      });
  ASSERT_TRUE(wr.ok);
  ASSERT_EQ(wr.rank_payloads.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(wr.rank_payloads[static_cast<std::size_t>(r)],
              "payload-" + std::to_string(r));
  }
}

// ---------------------------------------------------------------------------
// Failure semantics.

TEST_P(TransportConformance, RankExceptionPoisonsWorldAndBlamesCulprit) {
  const WorldReport wr =
      run_world_guarded(4, opts(30000.0), [](Communicator& comm) {
        comm.barrier();
        if (comm.rank() == 2) {
          throw std::runtime_error("boom from rank 2");
        }
        for (;;) comm.barrier();  // unblocked only by the poison
      });
  EXPECT_FALSE(wr.ok);
  EXPECT_EQ(wr.kind, WorldFailKind::kException);
  EXPECT_EQ(wr.culprit_rank, 2);
  ASSERT_EQ(wr.primary_ranks.size(), 1u);
  EXPECT_EQ(wr.primary_ranks[0], 2);
  EXPECT_EQ(wr.failed_ranks.size(), 4u);  // three collateral aborts
  EXPECT_NE(wr.culprit_what.find("boom from rank 2"), std::string::npos)
      << wr.culprit_what;
  EXPECT_EQ(wr.detached, 0);
}

TEST_P(TransportConformance, BarrierTimeoutBlamesTheMissingRank) {
  const WorldReport wr =
      run_world_guarded(2, opts(800.0), [](Communicator& comm) {
        if (comm.rank() == 1) return;  // never arrives
        comm.barrier();
      });
  EXPECT_FALSE(wr.ok);
  EXPECT_EQ(wr.kind, WorldFailKind::kTimeout);
  EXPECT_EQ(wr.culprit_rank, 1);
  ASSERT_EQ(wr.failed_ranks.size(), 1u);
  EXPECT_EQ(wr.failed_ranks[0], 0);
  EXPECT_TRUE(wr.primary_ranks.empty());  // a pure timeout has no primary
  ASSERT_EQ(wr.errors.size(), 1u);
  EXPECT_NE(wr.errors[0].find("rank 1"), std::string::npos) << wr.errors[0];
}

TEST_P(TransportConformance, ReleasedBarrierWaiterOutlivesItsOldDeadline) {
  // Regression: the proc hub used to release barrier waiters without
  // clearing their parked state, so a compute phase longer than timeout_ms
  // *after* a successful barrier made the deadline sweep fire on the stale
  // park and send an unsolicited timeout frame — poisoning a healthy world
  // and desyncing the released rank's reply stream.
  const WorldReport wr =
      run_world_guarded(2, opts(400.0), [](Communicator& comm) {
        // Stagger arrivals so rank 0 genuinely parks (deadline armed).
        if (comm.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
        }
        comm.barrier();
        // Compute phase longer than the timeout: the old deadline expires
        // while nobody is waiting on anything.
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
        comm.barrier();
      });
  EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "" : wr.errors[0]);
  EXPECT_TRUE(wr.failed_ranks.empty());
}

TEST_P(TransportConformance, ProcKillFaultSiteFiresPerBackend) {
  // proc_kill at rank 1's 4th collective entry: a real SIGKILL under the
  // proc backend, a degraded thrown crash in-process. Either way the world
  // must blame rank 1 as the primary and unblock everyone else.
  FaultInjector::instance().configure(
      "seed=5;proc_kill:error,rank=1,after=3,count=1");
  const WorldReport wr =
      run_world_guarded(3, opts(30000.0), [](Communicator& comm) {
        for (int i = 0; i < 10; ++i) comm.barrier();
      });
  EXPECT_FALSE(wr.ok);
  EXPECT_EQ(wr.kind, WorldFailKind::kException);
  EXPECT_EQ(wr.culprit_rank, 1);
  ASSERT_EQ(wr.primary_ranks.size(), 1u);
  EXPECT_EQ(wr.primary_ranks[0], 1);
  const std::string expect_substr = GetParam() == TransportKind::kProc
                                        ? "killed by signal"
                                        : "degraded to a thrown crash";
  EXPECT_NE(wr.culprit_what.find(expect_substr), std::string::npos)
      << wr.culprit_what;
}

TEST_P(TransportConformance, ProcStallBlameFallsOnFrozenRank) {
  // proc_stall at rank 1's 3rd collective entry: a real SIGSTOP/SIGCONT
  // full-process freeze under the proc backend (heartbeat thread included),
  // the degraded heartbeat-free rank_stall sleep in-process. The freeze
  // (1.5 s) outlives the 800 ms deadline, so rank 0's timed wait expires
  // and the heartbeat-age blame must land on the frozen rank — not on the
  // reporter, and not as a generic world error.
  FaultInjector::instance().configure(
      "seed=13;proc_stall:delay,rank=1,after=2,count=1,delay_us=1500000");
  const WorldReport wr =
      run_world_guarded(2, opts(800.0), [](Communicator& comm) {
        for (int i = 0; i < 6; ++i) comm.barrier();
      });
  EXPECT_FALSE(wr.ok);
  EXPECT_EQ(wr.kind, WorldFailKind::kTimeout);
  EXPECT_EQ(wr.culprit_rank, 1);
  EXPECT_TRUE(wr.primary_ranks.empty());  // a stall is nobody's exception
  EXPECT_EQ(wr.detached, 0);  // the freeze is bounded: everyone unwinds
  EXPECT_NE(wr.culprit_what.find("waiting for rank 1"), std::string::npos)
      << wr.culprit_what;
  EXPECT_NE(wr.culprit_what.find("heartbeat age"), std::string::npos)
      << wr.culprit_what;
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kProc),
                         param_name);

// ---------------------------------------------------------------------------
// The inproc barrier's spin-then-park wait under random skew.

class InprocBarrierRounds : public ::testing::TestWithParam<int> {};

// Each round a member runs a seeded busy delay of zero to twice the spin
// budget, writes its slot and crosses the barrier; every member then checks
// every slot and crosses again before the next write (the publish / read /
// release shape of a collective). Skews past the spin budget park; shorter
// ones, and the second crossing, return from the spin. A group larger than
// the host's hardware threads never spins, so every wait parks.
TEST_P(InprocBarrierRounds, RandomSkewCoversSpinAndPark) {
  using detail::AbortableBarrier;
  const int n = GetParam();
  constexpr int kRounds = 10000;
  AbortableBarrier barrier(n, nullptr, nullptr);
  std::vector<int> slots(static_cast<std::size_t>(n), -1);
  std::vector<int> bad(static_cast<std::size_t>(n), 0);
  std::vector<int> lasts(static_cast<std::size_t>(n), 0);
  std::vector<std::thread> threads;
  for (int m = 0; m < n; ++m) {
    threads.emplace_back([&, m] {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + 7 * n + m));
      std::uniform_int_distribution<int> delay_us(
          0, 2 * static_cast<int>(AbortableBarrier::kSpinBudget.count()));
      const auto cross = [&] {
        bool last = false;
        if (barrier.arrive_and_wait(m, m, 0.0, false, nullptr, nullptr,
                                    &last) != detail::WaitOutcome::kOk) {
          ++bad[static_cast<std::size_t>(m)];
        }
        lasts[static_cast<std::size_t>(m)] += last ? 1 : 0;
      };
      for (int round = 0; round < kRounds; ++round) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(delay_us(rng));
        while (std::chrono::steady_clock::now() < until) {
        }
        slots[static_cast<std::size_t>(m)] = round;
        cross();
        for (int peer = 0; peer < n; ++peer) {
          if (slots[static_cast<std::size_t>(peer)] != round) {
            ++bad[static_cast<std::size_t>(m)];
          }
        }
        cross();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int m = 0; m < n; ++m) EXPECT_EQ(bad[static_cast<std::size_t>(m)], 0);
  EXPECT_EQ(barrier.epoch(), std::uint64_t{2} * kRounds);
  int total_lasts = 0;
  for (const int l : lasts) total_lasts += l;
  EXPECT_EQ(total_lasts, 2 * kRounds) << "one releasing arrival per round";
  const std::uint64_t waits =
      std::uint64_t{2} * kRounds * static_cast<std::uint64_t>(n - 1);
  if (static_cast<unsigned>(n) > std::thread::hardware_concurrency()) {
    EXPECT_EQ(barrier.parks(), waits) << "oversubscribed groups never spin";
  } else {
    EXPECT_GT(barrier.parks(), 0u) << "no skew outlasted the spin budget";
    EXPECT_LT(barrier.parks(), waits) << "no wait returned from the spin";
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, InprocBarrierRounds,
                         ::testing::Values(2, 3, 8));

// ---------------------------------------------------------------------------
// Cross-backend determinism: not just "both correct" — bit-identical.

TEST(TransportCrossBackend, ReductionsAreBitIdenticalAcrossBackends) {
  if (kTsan) GTEST_SKIP() << "proc backend unsupported under TSan";
  const auto run = [](TransportKind kind) {
    WorldOptions o;
    o.transport = kind;
    const WorldReport wr =
        run_world_guarded(4, o, [](Communicator& comm) {
          // Values chosen so fp32 accumulation order matters: summing in a
          // different rank order would change the result bits.
          std::vector<float> v(257);
          for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = 0.1f * (comm.rank() + 1) + 0.001f * static_cast<float>(i);
          }
          comm.allreduce_sum(std::span<float>(v));
          const double s =
              comm.allreduce_sum_scalar(0.3 * (comm.rank() + 1));
          std::string blob(reinterpret_cast<const char*>(v.data()),
                           v.size() * sizeof(float));
          blob.append(reinterpret_cast<const char*>(&s), sizeof(s));
          comm.set_result(std::move(blob));
        });
    EXPECT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
    return wr.rank_payloads;
  };
  const std::vector<std::string> inproc = run(TransportKind::kInproc);
  const std::vector<std::string> proc = run(TransportKind::kProc);
  ASSERT_EQ(inproc.size(), proc.size());
  for (std::size_t r = 0; r < inproc.size(); ++r) {
    EXPECT_EQ(inproc[r], proc[r]) << "rank " << r << " result bits diverged";
  }
}

TEST(TransportCrossBackend, StallBlameIsByteIdenticalAcrossBackends) {
  // Same freeze, both backends: the timeout blame must not just name the
  // same culprit — the recorded first-failure text must match byte for byte
  // up to the live heartbeat-age suffix (a measured wall time, the one part
  // that legitimately differs run to run). A 2-rank world pins the
  // reporter: only rank 0 is left waiting, so op, reporter rank, timeout,
  // epoch, and blamed rank are all deterministic.
  if (kTsan) GTEST_SKIP() << "proc backend unsupported under TSan";
  const auto stall_blame = [](TransportKind kind) {
    FaultInjector::instance().clear();
    FaultInjector::instance().configure(
        "seed=13;proc_stall:delay,rank=1,after=2,count=1,delay_us=1500000");
    WorldOptions o;
    o.transport = kind;
    o.timeout_ms = 800.0;
    const WorldReport wr = run_world_guarded(2, o, [](Communicator& comm) {
      for (int i = 0; i < 6; ++i) comm.barrier();
    });
    FaultInjector::instance().clear();
    EXPECT_FALSE(wr.ok);
    EXPECT_EQ(wr.kind, WorldFailKind::kTimeout);
    EXPECT_EQ(wr.culprit_rank, 1);
    // "... waiting for rank 1 (heartbeat age 812 ms)" — strip the age.
    const std::size_t cut = wr.culprit_what.find(" (heartbeat age");
    EXPECT_NE(cut, std::string::npos) << wr.culprit_what;
    return wr.culprit_what.substr(0, cut);
  };
  const std::string inproc = stall_blame(TransportKind::kInproc);
  const std::string proc = stall_blame(TransportKind::kProc);
  EXPECT_FALSE(inproc.empty());
  EXPECT_EQ(inproc, proc) << "stall blame diverged across backends";
}

// ---------------------------------------------------------------------------
// Satellite: WorldOptions::from_env fails fast on malformed numerics.

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {}
  ~EnvGuard() { ::unsetenv(name_); }
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
};

TEST(WorldOptionsFromEnv, RejectsSuffixedByteCount) {
  EnvGuard guard("ZI_P2P_CAP_BYTES");
  guard.set("4gb");  // used to strtoull-parse as 4... or 0, silently
  try {
    (void)WorldOptions::from_env();
    FAIL() << "from_env accepted ZI_P2P_CAP_BYTES=4gb";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ZI_P2P_CAP_BYTES"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("4gb"), std::string::npos)
        << e.what();
  }
}

TEST(WorldOptionsFromEnv, RejectsGarbageFloat) {
  EnvGuard guard("ZI_COMM_TIMEOUT_MS");
  guard.set("fast");
  EXPECT_THROW((void)WorldOptions::from_env(), Error);
  guard.set("12.5ms");  // trailing unit must not silently truncate
  EXPECT_THROW((void)WorldOptions::from_env(), Error);
  // from_chars parses these as valid doubles; a NaN timeout makes every
  // deadline comparison false, so non-finite values must be rejected too.
  guard.set("nan");
  EXPECT_THROW((void)WorldOptions::from_env(), Error);
  guard.set("inf");
  EXPECT_THROW((void)WorldOptions::from_env(), Error);
}

TEST(WorldOptionsFromEnv, RejectsUnknownTransport) {
  EnvGuard guard("ZI_TRANSPORT");
  guard.set("tcp");
  try {
    (void)WorldOptions::from_env();
    FAIL() << "from_env accepted ZI_TRANSPORT=tcp";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tcp"), std::string::npos);
  }
}

TEST(WorldOptionsFromEnv, ParsesValidValues) {
  EnvGuard cap_bytes("ZI_P2P_CAP_BYTES");
  EnvGuard cap_msgs("ZI_P2P_CAP_MSGS");
  EnvGuard timeout("ZI_COMM_TIMEOUT_MS");
  EnvGuard transport("ZI_TRANSPORT");
  EnvGuard shm("ZI_PROC_SHM_MB");
  cap_bytes.set("4294967296");  // what "4gb" should have been
  cap_msgs.set("128");
  timeout.set("2500.5");
  transport.set("proc");
  shm.set("16");
  const WorldOptions o = WorldOptions::from_env();
  EXPECT_EQ(o.p2p_capacity_bytes, 4294967296ull);
  EXPECT_EQ(o.p2p_capacity_messages, 128u);
  EXPECT_EQ(o.timeout_ms, 2500.5);
  EXPECT_EQ(o.transport, TransportKind::kProc);
  EXPECT_EQ(o.proc_shm_mb, 16u);
}

// ---------------------------------------------------------------------------
// Satellite: a failed checkpoint write leaves no "<path>.tmp" litter.

TEST(CkptTmpHygiene, FailedPayloadWriteUnlinksTmp) {
  FaultInjector::instance().clear();
  const fs::path dir = fs::temp_directory_path() /
                       ("zi_ckpt_tmp_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "model.ckpt").string();
  std::vector<std::byte> blob(4096, std::byte{0x5a});

  // Every aio write fails: the engine exhausts retries and
  // write_checkpoint_file must throw — leaving neither <path> nor
  // <path>.tmp behind.
  FaultInjector::instance().configure("seed=9;aio_write:error,p=1");
  {
    AioEngine aio;
    EXPECT_THROW(write_checkpoint_file(aio, path, blob), std::exception);
  }
  FaultInjector::instance().clear();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "leaked temp file";
  EXPECT_FALSE(fs::exists(ckpt_manifest_path(path)));

  // And a clean write still works in the same directory afterwards.
  {
    AioEngine aio;
    write_checkpoint_file(aio, path, blob);
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(fs::exists(ckpt_manifest_path(path)));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The headline: kill -9 a rank process mid-step, restart, resume
// bit-identically. Mirrors test_elastic's injected-crash scenario with a
// real process death under the proc backend.

struct KillNineSetup {
  GptConfig mc;
  TokenDataset data{std::vector<std::int32_t>(400, 1), 16};

  KillNineSetup() {
    ByteTokenizer tok;
    std::string corpus;
    for (int i = 0; i < 30; ++i) corpus += "the quick brown fox jumps. ";
    mc.vocab = tok.vocab_size();
    mc.seq = 16;
    mc.hidden = 32;
    mc.layers = 2;
    mc.heads = 4;
    data = TokenDataset(tok.encode(corpus), mc.seq);
  }

  TrainerConfig trainer_config(const fs::path& dir) const {
    TrainerConfig tc;
    tc.total_steps = 10;
    tc.batch_per_rank = 2;
    tc.micro_batches = 1;
    tc.checkpoint_every = 3;  // checkpoints at steps 3, 6, 9
    tc.checkpoint_keep = 3;
    tc.checkpoint_path = (dir / "run.ckpt").string();
    tc.schedule.base_lr = 5e-3f;
    tc.schedule.warmup_steps = 2;
    tc.schedule.total_steps = 10;
    return tc;
  }

  EngineConfig engine_config(const fs::path& dir) const {
    EngineConfig cfg = preset_zero_infinity_nvme();
    cfg.nvme_dir = (dir / "swap").string();
    cfg.loss_scale.init_scale = 1024.0f;
    return cfg;
  }

  /// A clean in-process run mirroring the elastic attempt body op-for-op,
  /// used both to calibrate the kill ordinal and as the bit-exact control.
  std::pair<std::vector<float>, std::int64_t> run_inproc(const fs::path& dir,
                                                         int ranks,
                                                         AioEngine& aio) {
    const TrainerConfig tc = trainer_config(dir);
    const EngineConfig cfg = engine_config(dir);
    std::vector<float> losses;
    std::int64_t resumed = -1;
    run_ranks(ranks, [&](Communicator& comm) {
      Gpt model(mc);
      ZeroEngine engine(model, comm, aio, cfg);
      Trainer trainer(engine, comm, data, nullptr, tc);
      const std::int64_t r = trainer.try_resume();
      const TrainerReport report = trainer.run();
      if (comm.rank() == 0) {
        losses = report.train_losses;
        resumed = r;
      }
    });
    return {losses, resumed};
  }
};

ElasticReport run_elastic_guarded(const ElasticConfig& ec,
                                  const EngineConfig& cfg, AioEngine& aio,
                                  const TokenDataset& data,
                                  const ModelFactory& factory,
                                  std::chrono::seconds limit) {
  std::promise<ElasticReport> done;
  std::future<ElasticReport> fut = done.get_future();
  std::thread([&done, &ec, &cfg, &aio, &data, &factory] {
    try {
      done.set_value(run_elastic(ec, cfg, aio, data, nullptr, factory));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  }).detach();
  if (fut.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "elastic supervisor hung for " << limit.count()
                  << "s — rank-death detection failed to unblock it";
    std::abort();
  }
  return fut.get();
}

TEST(ProcElastic, KillNineMidStepRestartsBitIdentically) {
  if (kTsan) GTEST_SKIP() << "proc backend unsupported under TSan";
  FaultInjector::instance().clear();
  KillNineSetup setup;
  AioEngine aio;
  const fs::path dir = fs::temp_directory_path() /
                       ("zi_kill9_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // --- Phase A: probe. A never-firing proc_kill rule counts collective
  // entries per rank in a clean in-process run; the real kill fires at 3/4
  // of that count — after the step-6 checkpoint, before the run finishes.
  FaultInjector::instance().configure(
      "seed=3;proc_kill:error,rank=3,after=1000000000");
  const fs::path probe_dir = dir / "probe";
  fs::create_directories(probe_dir);
  {
    auto [losses, resumed] = setup.run_inproc(probe_dir, 4, aio);
    ASSERT_EQ(losses.size(), 10u);
    ASSERT_EQ(resumed, 0);
  }
  const std::uint64_t total =
      FaultInjector::instance().stats(FaultSite::kProcKill).ops;
  ASSERT_GT(total, 0u);
  ASSERT_EQ(total % 4, 0u) << "ranks ran asymmetric collective sequences";
  const std::int64_t per_rank = static_cast<std::int64_t>(total / 4);
  const std::int64_t kill_at = per_rank * 3 / 4;
  ASSERT_GT(kill_at, 0);

  // --- Phase B: the real thing. Rank 3's *process* SIGKILLs itself at its
  // kill_at-th collective entry (the forked children inherit the armed
  // injector). The supervisor sees the socket EOF, blames rank 3, poisons
  // the world, and relaunches 3 survivors. The restarted world has no rank
  // 3, so the rank=3 rule can never re-fire.
  FaultInjector::instance().clear();
  FaultInjector::instance().configure(
      "seed=3;proc_kill:error,rank=3,after=" + std::to_string(kill_at) +
      ",count=1");
  const std::uint64_t restarts_before = elastic_restart_count();

  ElasticConfig ec;
  ec.ranks = 4;
  ec.min_ranks = 2;
  ec.max_restarts = 2;
  ec.world.transport = TransportKind::kProc;
  ec.world.timeout_ms = 8000.0;
  ec.trainer = setup.trainer_config(dir);
  const EngineConfig cfg = setup.engine_config(dir);
  const ElasticReport rep = run_elastic_guarded(
      ec, cfg, aio, setup.data,
      [&setup] { return std::make_unique<Gpt>(setup.mc); },
      std::chrono::seconds(300));
  FaultInjector::instance().clear();

  ASSERT_TRUE(rep.succeeded) << (rep.attempts.empty()
                                     ? std::string("no attempts")
                                     : rep.attempts.back().error);
  EXPECT_EQ(rep.restarts, 1);
  EXPECT_EQ(rep.final_world, 3);
  EXPECT_EQ(elastic_restart_count(), restarts_before + 1);
  ASSERT_EQ(rep.attempts.size(), 2u);

  const ElasticAttempt& killed = rep.attempts[0];
  EXPECT_FALSE(killed.completed);
  EXPECT_EQ(killed.world, 4);
  EXPECT_EQ(killed.kind, WorldFailKind::kException);
  EXPECT_EQ(killed.culprit_rank, 3);
  EXPECT_EQ(killed.ranks_lost, 1);  // three survivors unblocked, none wedged
  EXPECT_TRUE(killed.rank_weights.empty());
  EXPECT_NE(killed.error.find("killed by signal"), std::string::npos)
      << "expected a real SIGKILL death, got: " << killed.error;

  const ElasticAttempt& recovered = rep.attempts[1];
  EXPECT_TRUE(recovered.completed);
  EXPECT_EQ(recovered.world, 3);
  // Detection off: the shrink stays uniform, byte-for-byte legacy behavior.
  EXPECT_TRUE(recovered.rank_weights.empty());
  const std::int64_t resumed = recovered.resumed_step;
  EXPECT_TRUE(resumed == 3 || resumed == 6 || resumed == 9)
      << "resumed from step " << resumed;
  ASSERT_EQ(rep.report.train_losses.size(),
            static_cast<std::size_t>(10 - resumed));

  // --- Phase C: control. Copy the checkpoint the survivors resumed from
  // and run a clean in-process 3-rank world from it. Universal checkpoints
  // + rank-order-deterministic reductions + the bit-exact result payload
  // path make the trajectories bitwise equal across the process boundary.
  const fs::path ctrl_dir = dir / "control";
  fs::create_directories(ctrl_dir);
  const std::string src = Trainer::checkpoint_file(
      setup.trainer_config(dir).checkpoint_path, resumed);
  ASSERT_TRUE(fs::exists(src));
  ASSERT_TRUE(fs::exists(ckpt_manifest_path(src)));
  const std::string dst = Trainer::checkpoint_file(
      setup.trainer_config(ctrl_dir).checkpoint_path, resumed);
  fs::copy_file(src, dst);
  fs::copy_file(ckpt_manifest_path(src), ckpt_manifest_path(dst));

  auto [control_losses, control_resumed] =
      setup.run_inproc(ctrl_dir, 3, aio);
  EXPECT_EQ(control_resumed, resumed);
  ASSERT_EQ(control_losses.size(), rep.report.train_losses.size());
  for (std::size_t i = 0; i < control_losses.size(); ++i) {
    EXPECT_EQ(control_losses[i], rep.report.train_losses[i])
        << "post-restart step " << resumed + static_cast<std::int64_t>(i) + 1
        << " diverged from the clean in-process control";
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace zi
