// Microbenchmarks for the DeepNVMe-analog async I/O engine (Sec. 6.3):
// throughput vs block size, worker count, and queue depth; bursts of small
// reads at the zi_bench shape; pinned-pool acquire/release; NVMe-store
// extent roundtrips.
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <filesystem>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "aio/aio_engine.hpp"
#include "aio/nvme_store.hpp"
#include "mem/pinned_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace zi;

fs::path bench_dir() {
  static const fs::path dir = [] {
    const fs::path d =
        fs::temp_directory_path() / ("zi_bench_aio_" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

void BM_AioWrite(benchmark::State& state) {
  AioConfig cfg;
  cfg.num_workers = static_cast<std::size_t>(state.range(0));
  cfg.block_bytes = static_cast<std::size_t>(state.range(1));
  AioEngine engine(cfg);
  AioFile* f = engine.open(bench_dir() / "w.bin");
  std::vector<std::byte> buf(4 << 20, std::byte{0x5A});  // 4 MiB per request
  for (auto _ : state) {
    engine.write(f, 0, buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
  state.counters["workers"] = static_cast<double>(cfg.num_workers);
}
BENCHMARK(BM_AioWrite)
    ->Args({1, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({4, 1 << 18})
    ->Args({8, 1 << 20})
    ->MinTime(0.1);

void BM_AioRead(benchmark::State& state) {
  AioConfig cfg;
  cfg.num_workers = static_cast<std::size_t>(state.range(0));
  AioEngine engine(cfg);
  AioFile* f = engine.open(bench_dir() / "r.bin");
  std::vector<std::byte> buf(4 << 20, std::byte{0x5A});
  engine.write(f, 0, buf);
  for (auto _ : state) {
    engine.read(f, 0, buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_AioRead)->Arg(1)->Arg(4)->Arg(8)->MinTime(0.1);

// Queue depth: many outstanding async requests vs one-at-a-time. This is
// the "bulk read/write requests for asynchronous completion" claim.
void BM_AioQueueDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  AioConfig cfg;
  cfg.num_workers = 8;
  AioEngine engine(cfg);
  AioFile* f = engine.open(bench_dir() / "qd.bin");
  constexpr std::size_t kChunk = 512 << 10;
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(depth),
      std::vector<std::byte>(kChunk, std::byte{1}));
  for (auto _ : state) {
    std::vector<AioStatus> statuses;
    statuses.reserve(static_cast<std::size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      statuses.push_back(engine.submit_write(
          f, static_cast<std::uint64_t>(i) * kChunk, bufs[static_cast<std::size_t>(i)]));
    }
    for (auto& s : statuses) s.wait();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          depth * static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_AioQueueDepth)->Arg(1)->Arg(4)->Arg(16)->MinTime(0.1);

// The zi_bench shape: two workers built on a thread whose mask holds two
// CPUs (zi_bench gives its AIO workers a shared 2-CPU mask), submitted to
// from a thread on another CPU (a rank thread), in bursts of six 128 KiB
// reads — one optimizer chunk's three state reads, twice. The time per
// burst shows whether the two workers run side by side.
void BM_ReadBurst(benchmark::State& state) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  if (cpus.size() < 3) {
    state.SkipWithError("needs three CPUs");
    return;
  }
  AioConfig cfg;
  cfg.num_workers = 2;
  std::unique_ptr<AioEngine> engine;
  std::thread([&] {
    cpu_set_t two;
    CPU_ZERO(&two);
    CPU_SET(cpus[cpus.size() - 2], &two);
    CPU_SET(cpus[cpus.size() - 1], &two);
    pthread_setaffinity_np(pthread_self(), sizeof(two), &two);
    engine = std::make_unique<AioEngine>(cfg);
  }).join();
  cpu_set_t rank_cpu;
  CPU_ZERO(&rank_cpu);
  CPU_SET(cpus.front(), &rank_cpu);
  pthread_setaffinity_np(pthread_self(), sizeof(rank_cpu), &rank_cpu);
  AioFile* f = engine->open(bench_dir() / "burst.bin");
  constexpr std::size_t kRead = 128 << 10;
  constexpr int kBurst = 6;
  std::vector<std::byte> buf(kBurst * kRead, std::byte{3});
  engine->write(f, 0, buf);
  std::vector<AioStatus> statuses(kBurst);
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * kRead;
      statuses[static_cast<std::size_t>(i)] = engine->submit_read(
          f, off, std::span<std::byte>(buf).subspan(off, kRead));
    }
    for (const AioStatus& s : statuses) s.wait();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
  pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
}
BENCHMARK(BM_ReadBurst)->MinTime(0.5)->UseRealTime();

void BM_PinnedPoolAcquireRelease(benchmark::State& state) {
  PinnedBufferPool pool(1 << 20, 8);
  for (auto _ : state) {
    PinnedLease lease = pool.acquire();
    benchmark::DoNotOptimize(lease.data());
  }
}
BENCHMARK(BM_PinnedPoolAcquireRelease)->MinTime(0.1);

void BM_NvmeStoreRoundtrip(benchmark::State& state) {
  AioEngine engine;
  NvmeStore store(engine, bench_dir() / "store.bin", 64 << 20);
  Extent e = store.allocate(1 << 20);
  std::vector<std::byte> buf(1 << 20, std::byte{7});
  for (auto _ : state) {
    store.write(e, buf);
    store.read(e, buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_NvmeStoreRoundtrip)->MinTime(0.1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove_all(bench_dir());
  return 0;
}
