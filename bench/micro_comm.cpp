// Microbenchmarks for the in-process collectives substrate.
#include <benchmark/benchmark.h>

#include "comm/world.hpp"

namespace {

using namespace zi;

void BM_Allgather(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_ranks(ranks, [&](Communicator& comm) {
      std::vector<float> send(elems, static_cast<float>(comm.rank()));
      std::vector<float> recv(elems * static_cast<std::size_t>(ranks));
      for (int i = 0; i < 8; ++i) {
        comm.allgather<float>(send, recv);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          ranks * static_cast<std::int64_t>(elems) * 4);
}
BENCHMARK(BM_Allgather)->Args({2, 4096})->Args({4, 4096})->Args({4, 65536})->MinTime(0.05);

void BM_ReduceScatter(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_ranks(ranks, [&](Communicator& comm) {
      std::vector<float> send(elems * static_cast<std::size_t>(ranks), 1.0f);
      std::vector<float> recv(elems);
      for (int i = 0; i < 8; ++i) {
        comm.reduce_scatter_sum<float>(send, recv);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          ranks * static_cast<std::int64_t>(elems) * 4);
}
BENCHMARK(BM_ReduceScatter)->Args({2, 4096})->Args({4, 4096})->Args({4, 65536})->MinTime(0.05);

void BM_ReduceScatterHalf(benchmark::State& state) {
  const int ranks = 4;
  const std::size_t elems = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    run_ranks(ranks, [&](Communicator& comm) {
      std::vector<half> send(elems * ranks, half(1.0f));
      std::vector<half> recv(elems);
      for (int i = 0; i < 8; ++i) {
        comm.reduce_scatter_sum<half>(send, recv);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          ranks * static_cast<std::int64_t>(elems) * 2);
}
BENCHMARK(BM_ReduceScatterHalf)->Arg(4096)->Arg(65536)->MinTime(0.05);

// The fc1 weight's gradient at world 2 on zi_bench's train_nvme_b1
// (hidden 192): 147,456 halves per rank, 73,728 reduced on each. One run
// of 32 reduce-scatters per iteration, so the rank threads' start-up
// spreads over many collectives.
void BM_ReduceScatterFc1(benchmark::State& state) {
  constexpr std::size_t kElems = 147456;
  constexpr int kReps = 32;
  for (auto _ : state) {
    run_ranks(2, [&](Communicator& comm) {
      std::vector<half> send(kElems);
      for (std::size_t i = 0; i < kElems; ++i) {
        send[i] = half(0.001f * static_cast<float>(i % 977) - 0.3f);
      }
      std::vector<half> recv(kElems / 2);
      for (int i = 0; i < kReps; ++i) comm.reduce_scatter_sum<half>(send, recv);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kReps);
}
BENCHMARK(BM_ReduceScatterFc1)->MinTime(0.2);

// One transformer block's twelve parameters at train_nvme_b1's shapes
// (hidden 192, world 2): twelve one-segment allgathers (arg 0) against one
// twelve-segment allgather (arg 1). Items are blocks gathered.
void BM_BlockAllgather(benchmark::State& state) {
  constexpr int kRanks = 2;
  constexpr int kReps = 32;
  const bool segmented = state.range(0) != 0;
  const std::vector<std::size_t> numel = {
      192, 192, 192 * 576, 576, 192 * 192, 192,
      192, 192, 192 * 768, 768, 768 * 192, 192};
  for (auto _ : state) {
    run_ranks(kRanks, [&](Communicator& comm) {
      std::vector<std::vector<half>> full;
      std::vector<half> send;
      for (const std::size_t n : numel) {
        full.emplace_back(n);
        send.resize(send.size() + n / kRanks, half(1.0f));
      }
      std::vector<std::span<half>> segs(full.begin(), full.end());
      for (int i = 0; i < kReps; ++i) {
        if (segmented) {
          comm.allgather<half>(send, segs);
          continue;
        }
        std::size_t at = 0;
        for (std::span<half> seg : segs) {
          const std::size_t piece = seg.size() / kRanks;
          comm.allgather<half>(std::span<const half>(send).subspan(at, piece),
                               seg);
          at += piece;
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kReps);
}
BENCHMARK(BM_BlockAllgather)->Arg(0)->Arg(1)->MinTime(0.2);

void BM_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_ranks(ranks, [&](Communicator& comm) {
      for (int i = 0; i < 64; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8)->MinTime(0.05);

}  // namespace

BENCHMARK_MAIN();
