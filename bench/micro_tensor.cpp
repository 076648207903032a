// Microbenchmarks for the tensor kernels and the optimizer step — the
// compute substrate under the training engine.
#include <benchmark/benchmark.h>

#include <algorithm>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "common/half.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "scalar_oracles.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace zi;

std::vector<float> randn(std::size_t n) {
  Rng rng(1, n);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_normal();
  return v;
}

void BM_Gemm(benchmark::State& state) {
  const i64 n = state.range(0);
  const auto a = randn(static_cast<std::size_t>(n * n));
  const auto b = randn(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The benchmarks below take the kernel tier as their first argument: 0 runs
// the SSE2 tier (through the test seam), 1 the AVX2+F16C tier, which is
// skipped on a CPU without it. Each shape runs in both tiers back to back.
class Tier {
 public:
  explicit Tier(benchmark::State& state) {
    if (state.range(0) == 0) {
      sse2_.emplace();
    } else if (!cpu_has_avx2_f16c()) {
      state.SkipWithError("this CPU lacks AVX2 or F16C");
    }
  }

 private:
  std::optional<test_seam::ScopedSse2Tier> sse2_;
};

// Registers `shapes` (argument lists after the tier) once per tier.
void in_both_tiers(benchmark::internal::Benchmark* b,
                   std::initializer_list<std::vector<std::int64_t>> shapes) {
  for (const auto& shape : shapes) {
    for (const std::int64_t tier : {0, 1}) {
      std::vector<std::int64_t> args = {tier};
      args.insert(args.end(), shape.begin(), shape.end());
      b->Args(args);
    }
  }
}

// The GEMM family at the shapes zi_bench's workloads run: training at
// hidden 128 (64 tokens per rank step) and hidden 192 (16 tokens), vocab
// 256, heads of 32 and 48; serving at hidden 128, decode batches 1-8,
// head size 32, and attention over few positions (n < 16).
using GemmFn = void (*)(const float*, const float*, float*, i64, i64, i64,
                        float, float);

void run_gemm_at(benchmark::State& state, GemmFn fn) {
  const Tier tier(state);
  const i64 m = state.range(1), k = state.range(2), n = state.range(3);
  const auto a = randn(static_cast<std::size_t>(m * k));
  const auto b = randn(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    fn(a.data(), b.data(), c.data(), m, k, n, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n / 1e9,
      benchmark::Counter::kIsRate);
}

// C[m,n] = A[m,k] · B[k,n]: the fp32 gemm, attention's att·V in training
// (16 x 16 x 32) and at decode (1 x 64 x 32, and a prefill of 8), and
// linear-forward shapes (qkv, fc2) at training and decode batches.
void BM_GemmNN(benchmark::State& state) { run_gemm_at(state, gemm); }
BENCHMARK(BM_GemmNN)
    ->ArgNames({"tier", "m", "k", "n"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      in_both_tiers(b, {{64, 128, 384},
                        {64, 512, 128},
                        {16, 192, 576},
                        {1, 128, 384},
                        {2, 128, 384},
                        {4, 128, 384},
                        {8, 128, 384},
                        {16, 16, 32},
                        {1, 64, 32},
                        {8, 8, 32}});
    });

// C[m,n] = A[k,m]^T · B[k,n]: the qkv weight gradient at both training
// shapes, and attention's dV.
void BM_GemmTN(benchmark::State& state) { run_gemm_at(state, gemm_tn); }
BENCHMARK(BM_GemmTN)
    ->ArgNames({"tier", "m", "k", "n"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      in_both_tiers(b, {{128, 64, 384}, {192, 16, 576}, {16, 16, 32}});
    });

// C[m,n] = A[m,k] · B[n,k]^T: the tied LM head in training and at decode
// batch 1, 2, 4 and 8, and attention scores: training (16 x 16), one
// head's decode row over 64 positions, and prefills over 8 and 4.
void BM_GemmNT(benchmark::State& state) { run_gemm_at(state, gemm_nt); }
BENCHMARK(BM_GemmNT)
    ->ArgNames({"tier", "m", "k", "n"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      in_both_tiers(b, {{64, 128, 256},
                        {1, 128, 256},
                        {2, 128, 256},
                        {4, 128, 256},
                        {8, 128, 256},
                        {16, 32, 16},
                        {1, 32, 64},
                        {8, 32, 8},
                        {4, 32, 4}});
    });

// An fp16 weight (a gathered parameter) as the B operand, at decode
// batches 1, 2, 4, 8 and 16 and the training batch 64: the kernel widening
// each strip while packing it (BM_GemmHalfB) against a full widening pass
// followed by the fp32 kernel (BM_GemmWidenThenF32), the path the gather
// used to take. Shapes: fc1 (k 128, n 512) and fc2 (k 512, n 128).
void run_half_b(benchmark::State& state, bool widen_first) {
  const Tier tier(state);
  const i64 m = state.range(1), k = state.range(2), n = state.range(3);
  const auto a = randn(static_cast<std::size_t>(m * k));
  std::vector<half> b(static_cast<std::size_t>(k * n));
  floats_to_halves(randn(b.size()), b);
  std::vector<float> wide(b.size());
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    if (widen_first) {
      halves_to_floats(b, wide);
      gemm(a.data(), wide.data(), c.data(), m, k, n);
    } else {
      gemm(a.data(), b.data(), c.data(), m, k, n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n / 1e9,
      benchmark::Counter::kIsRate);
}

void half_b_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"tier", "m", "k", "n"});
  for (const i64 m : {1, 2, 4, 8, 16, 64}) {
    in_both_tiers(b, {{m, 128, 512}, {m, 512, 128}});
  }
}

void BM_GemmHalfB(benchmark::State& state) { run_half_b(state, false); }
BENCHMARK(BM_GemmHalfB)->Apply(half_b_shapes);

void BM_GemmWidenThenF32(benchmark::State& state) { run_half_b(state, true); }
BENCHMARK(BM_GemmWidenThenF32)->Apply(half_b_shapes);

void BM_LayerNorm(benchmark::State& state) {
  const i64 rows = 256, dim = state.range(0);
  const auto x = randn(static_cast<std::size_t>(rows * dim));
  std::vector<half> gamma(static_cast<std::size_t>(dim), half(1.0f));
  std::vector<half> beta(static_cast<std::size_t>(dim), half(0.0f));
  std::vector<float> y(x.size()), mean(static_cast<std::size_t>(rows)),
      rstd(static_cast<std::size_t>(rows));
  for (auto _ : state) {
    layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(),
                      mean.data(), rstd.data(), rows, dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()) * 4);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(1024);

void BM_Softmax(benchmark::State& state) {
  const i64 rows = 128, dim = state.range(0);
  const auto x = randn(static_cast<std::size_t>(rows * dim));
  std::vector<float> y(x.size());
  for (auto _ : state) {
    softmax_forward(x.data(), y.data(), rows, dim);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

// fp32 inputs that exercise every conversion case in turn: normals,
// values in the fp16 subnormal range, exact round-to-even ties, and
// magnitudes near (and past) the fp16 overflow threshold.
std::vector<float> conversion_mix(std::size_t n) {
  auto v = randn(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 1:
        v[i] *= 1e-6f;
        break;
      case 2: {
        // Halfway between two adjacent fp16 values.
        const auto h = std::bit_cast<std::uint32_t>(half(v[i]).to_float());
        v[i] = std::bit_cast<float>(h + 0x1000u);
        break;
      }
      case 3:
        v[i] *= 3e4f;
        break;
      default:
        break;
    }
  }
  return v;
}

void conversion_sizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"tier", "n"});
  in_both_tiers(b, {{1 << 14}, {1 << 18}});
}

void BM_F32ToF16(benchmark::State& state) {
  const Tier tier(state);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto f = conversion_mix(n);
  std::vector<half> h(n);
  for (auto _ : state) {
    floats_to_halves(f, h);
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_F32ToF16)->Apply(conversion_sizes);

void BM_F16ToF32(benchmark::State& state) {
  const Tier tier(state);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<half> h(n);
  floats_to_halves(conversion_mix(n), h);
  std::vector<float> f(n);
  for (auto _ : state) {
    halves_to_floats(h, f);
    benchmark::DoNotOptimize(f.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_F16ToF32)->Apply(conversion_sizes);

// The reduce-scatter's rank-order sum: two ranks' fp16 terms into n
// outputs (73,728 is the fc1 weight's chunk at world 2 on train_nvme_b1).
void BM_SumOverRanks(benchmark::State& state) {
  const Tier tier(state);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<half> a(n), b(n);
  floats_to_halves(conversion_mix(n), a);
  floats_to_halves(conversion_mix(n), b);
  std::reverse(b.begin(), b.end());
  const half* srcs[] = {a.data(), b.data()};
  std::vector<half> out(n);
  for (auto _ : state) {
    sum_over_ranks(srcs, 0, std::span<half>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_SumOverRanks)->ArgNames({"tier", "n"})->Apply([](auto* b) {
  in_both_tiers(b, {{1 << 14}, {73728}});
});

void set_elem_rate(benchmark::State& state, std::size_t n) {
  state.counters["Melem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) / 1e6,
      benchmark::Counter::kIsRate);
}

// The scalar Adam loop the fused kernel replaced (the tests' oracle), over
// an fp32 gradient.
void BM_AdamStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AdamConfig cfg;
  auto w = randn(n);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  const auto g = randn(n);
  std::int64_t step = 0;
  for (auto _ : state) {
    oracle::adam_step(cfg, ++step, w, m, v, g);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  set_elem_rate(state, n);
}
// 32768 is EngineConfig::optimizer_chunk_elems, the NVMe optimizer's chunk.
BENCHMARK(BM_AdamStep)->Arg(1 << 14)->Arg(1 << 15)->Arg(1 << 18);

// The product path: fp16 gradient in, fp32 state updated, fp16 out.
void BM_FusedAdamStep(benchmark::State& state) {
  const Tier tier(state);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  AdamConfig cfg;
  auto w = randn(n);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  std::vector<half> g(n), updated(n);
  floats_to_halves(randn(n), g);
  std::int64_t step = 0;
  for (auto _ : state) {
    fused_adam_step(cfg, ++step, w, m, v, g, updated);
    benchmark::DoNotOptimize(updated.data());
    benchmark::ClobberMemory();
  }
  set_elem_rate(state, n);
}
BENCHMARK(BM_FusedAdamStep)
    ->ArgNames({"tier", "n"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      in_both_tiers(b, {{1 << 14}, {1 << 15}, {1 << 18}});
    });

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("kernel_tier",
                              kernel_tier_name(kernel_tier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
