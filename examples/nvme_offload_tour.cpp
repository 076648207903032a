// A tour of the infinity offload engine's substrates (Sec. 6.3):
//
//   1. the async I/O engine — bulk submission, worker parallelism,
//      explicit drain;
//   2. the pinned-buffer management layer — a small fixed pool of transfer
//      buffers servicing an unbounded stream of offloads;
//   3. the NVMe tensor store — extent allocation + async tensor swap;
//   4. the chunked optimizer pipeline — read chunk i+1 while computing
//      chunk i while writing chunk i-1, measured against the serial
//      baseline.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "aio/aio_engine.hpp"
#include "aio/nvme_store.hpp"
#include "common/units.hpp"
#include "mem/pinned_pool.hpp"
#include "optim/adam.hpp"
#include "scratch_dir.hpp"

using namespace zi;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void tour_engine(const fs::path& dir) {
  std::cout << "--- 1. async I/O engine ---\n";
  AioConfig cfg;
  cfg.num_workers = 4;
  cfg.block_bytes = 1 * kMiB;
  AioEngine engine(cfg);
  AioFile* f = engine.open(dir / "tour.bin");

  const std::size_t total = 64 * kMiB;
  std::vector<std::byte> buf(total, std::byte{0xAB});
  auto t0 = Clock::now();
  AioStatus w = engine.submit_write(f, 0, buf);  // one bulk submission...
  w.wait();                                      // ...64 block sub-requests
  const double wsec = seconds_since(t0);
  t0 = Clock::now();
  engine.read(f, 0, buf);
  const double rsec = seconds_since(t0);
  const auto s = engine.stats();
  std::cout << "wrote " << format_bytes(total) << " @ "
            << format_bandwidth(total / wsec) << ", read @ "
            << format_bandwidth(total / rsec) << "\n";
  std::cout << "requests " << s.requests << " split into " << s.sub_requests
            << " sub-requests across " << cfg.num_workers << " workers ("
            << s.direct_ops << " O_DIRECT, " << s.buffered_ops
            << " buffered)\n\n";
}

void tour_pinned_pool() {
  std::cout << "--- 2. pinned-buffer management layer ---\n";
  PinnedBufferPool pool(4 * kMiB, 4);
  // Offload "a model's worth" of tensors through 4 fixed buffers.
  for (int i = 0; i < 256; ++i) {
    PinnedLease lease = pool.acquire();
    lease.data()[0] = std::byte{static_cast<unsigned char>(i)};
  }
  const auto ps = pool.stats();
  std::cout << ps.total_acquires << " transfers serviced by "
            << ps.num_buffers << " buffers of "
            << format_bytes(ps.buffer_bytes) << " (fixed footprint "
            << format_bytes(ps.buffer_bytes * ps.num_buffers)
            << ", peak in use " << ps.peak_in_use << ")\n\n";
}

void tour_nvme_store(const fs::path& dir) {
  std::cout << "--- 3. NVMe tensor store ---\n";
  AioEngine engine;
  NvmeStore store(engine, dir / "swap.bin", 256 * kMiB);
  std::vector<Extent> extents;
  std::vector<std::vector<std::byte>> tensors;
  for (int i = 0; i < 8; ++i) {
    tensors.emplace_back(8 * kMiB, std::byte{static_cast<unsigned char>(i)});
    extents.push_back(store.allocate(tensors.back().size()));
  }
  // Bulk async offload of all eight "tensors" at once.
  std::vector<AioStatus> statuses;
  const auto t0 = Clock::now();
  for (int i = 0; i < 8; ++i) {
    statuses.push_back(store.write_async(extents[static_cast<std::size_t>(i)],
                                         tensors[static_cast<std::size_t>(i)]));
  }
  for (auto& st : statuses) st.wait();
  std::cout << "offloaded 8 x " << format_bytes(8 * kMiB) << " tensors @ "
            << format_bandwidth(64.0 * kMiB / seconds_since(t0))
            << " (store now " << format_bytes(store.used()) << "/"
            << format_bytes(store.capacity()) << ")\n\n";
}

// The Sec. 5.2.2 pipeline at substrate level: Adam over a large flat state
// resident in a file, processed in chunks with overlapped read/compute/
// write vs fully serial.
void tour_chunked_optimizer(const fs::path& dir) {
  std::cout << "--- 4. chunked optimizer pipeline ---\n";
  constexpr std::int64_t kElems = 1 << 22;  // 4M params (~48 MB of state)
  constexpr std::int64_t kChunk = 1 << 18;
  AioConfig acfg;
  acfg.num_workers = 4;
  AioEngine engine(acfg);
  NvmeStore store(engine, dir / "opt.bin", 512 * kMiB);
  const std::uint64_t bytes = kElems * sizeof(float);
  Extent master = store.allocate(bytes);
  Extent mom = store.allocate(bytes);
  Extent var = store.allocate(bytes);
  {
    std::vector<float> zero(kElems, 0.0f);
    std::span<const std::byte> z{reinterpret_cast<const std::byte*>(zero.data()),
                                 bytes};
    store.write(master, z);
    store.write(mom, z);
    store.write(var, z);
  }
  std::vector<half> grad(kElems, half(0.01f));
  AdamConfig adam;

  auto run = [&](bool overlap) {
    const auto t0 = Clock::now();
    const std::int64_t chunks = kElems / kChunk;
    struct Buf {
      std::vector<float> m, mo, v;
      std::vector<half> updated;
      AioStatus lm, lmo, lv, sm, smo, sv;
    };
    Buf bufs[2];
    for (auto& b : bufs) {
      b.m.resize(kChunk);
      b.mo.resize(kChunk);
      b.v.resize(kChunk);
      b.updated.resize(kChunk);
    }
    auto issue_load = [&](std::int64_t c, Buf& b) {
      const std::uint64_t off = static_cast<std::uint64_t>(c) * kChunk * 4;
      b.lm = store.read_async(master, {reinterpret_cast<std::byte*>(b.m.data()),
                                       kChunk * 4}, off);
      b.lmo = store.read_async(mom, {reinterpret_cast<std::byte*>(b.mo.data()),
                                     kChunk * 4}, off);
      b.lv = store.read_async(var, {reinterpret_cast<std::byte*>(b.v.data()),
                                    kChunk * 4}, off);
    };
    auto wait_stores = [](Buf& b) {
      b.sm.wait();
      b.smo.wait();
      b.sv.wait();
    };
    issue_load(0, bufs[0]);
    for (std::int64_t c = 0; c < chunks; ++c) {
      Buf& b = bufs[c % 2];
      if (overlap && c + 1 < chunks) {
        wait_stores(bufs[(c + 1) % 2]);
        issue_load(c + 1, bufs[(c + 1) % 2]);
      }
      b.lm.wait();
      b.lmo.wait();
      b.lv.wait();
      fused_adam_step(
          adam, 1, {b.m.data(), static_cast<std::size_t>(kChunk)},
          {b.mo.data(), static_cast<std::size_t>(kChunk)},
          {b.v.data(), static_cast<std::size_t>(kChunk)},
          {grad.data() + c * kChunk, static_cast<std::size_t>(kChunk)},
          b.updated);
      const std::uint64_t off = static_cast<std::uint64_t>(c) * kChunk * 4;
      b.sm = store.write_async(master, {reinterpret_cast<std::byte*>(b.m.data()),
                                        kChunk * 4}, off);
      b.smo = store.write_async(mom, {reinterpret_cast<std::byte*>(b.mo.data()),
                                      kChunk * 4}, off);
      b.sv = store.write_async(var, {reinterpret_cast<std::byte*>(b.v.data()),
                                     kChunk * 4}, off);
      if (!overlap) {
        wait_stores(b);
        if (c + 1 < chunks) issue_load(c + 1, bufs[(c + 1) % 2]);
      }
    }
    wait_stores(bufs[0]);
    wait_stores(bufs[1]);
    return seconds_since(t0);
  };

  const double serial = run(/*overlap=*/false);
  const double pipelined = run(/*overlap=*/true);
  std::cout << "Adam over " << format_count(kElems) << " params in "
            << (kElems / kChunk) << " chunks: serial "
            << format_duration(serial) << ", pipelined "
            << format_duration(pipelined) << " ("
            << (serial / pipelined) << "x)\n";
}

}  // namespace

int main() {
  const ScratchDir scratch("zi_tour");
  const fs::path& dir = scratch.path;
  std::cout << "=== infinity offload engine tour ===\n\n";
  tour_engine(dir);
  tour_pinned_pool();
  tour_nvme_store(dir);
  tour_chunked_optimizer(dir);
  return 0;
}
