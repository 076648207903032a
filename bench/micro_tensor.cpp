// Microbenchmarks for the tensor kernels and the optimizer step — the
// compute substrate under the training engine.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "tensor/cast.hpp"
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

// The GEMM family at the shapes zi_bench's workloads run (hidden 128,
// vocab 256, 64 tokens per rank step, serving head size 32).
using GemmFn = void (*)(const float*, const float*, float*, i64, i64, i64,
                        float, float);

void run_gemm_at(benchmark::State& state, GemmFn fn) {
  const i64 m = state.range(0), k = state.range(1), n = state.range(2);
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

// C[m,n] = A[m,k] · B[k,n]: linear forward (qkv/fc1 and fc2).
void BM_GemmNN(benchmark::State& state) { run_gemm_at(state, gemm); }
BENCHMARK(BM_GemmNN)
    ->ArgNames({"m", "k", "n"})
    ->Args({64, 128, 384})
    ->Args({64, 512, 128});

// C[m,n] = A[k,m]^T · B[k,n]: the weight gradient of the qkv linear.
void BM_GemmTN(benchmark::State& state) { run_gemm_at(state, gemm_tn); }
BENCHMARK(BM_GemmTN)->ArgNames({"m", "k", "n"})->Args({128, 64, 384});

// C[m,n] = A[m,k] · B[n,k]^T: the tied LM head in training and at decode
// batch 1, 2 and 8, and one head's decode attention scores.
void BM_GemmNT(benchmark::State& state) { run_gemm_at(state, gemm_nt); }
BENCHMARK(BM_GemmNT)
    ->ArgNames({"m", "k", "n"})
    ->Args({64, 128, 256})
    ->Args({1, 128, 256})
    ->Args({2, 128, 256})
    ->Args({8, 128, 256})
    ->Args({1, 32, 64});

void BM_LayerNorm(benchmark::State& state) {
  const i64 rows = 256, dim = state.range(0);
  const auto x = randn(static_cast<std::size_t>(rows * dim));
  std::vector<float> gamma(static_cast<std::size_t>(dim), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(dim), 0.0f);
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

void BM_Fp16Cast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto f = randn(n);
  std::vector<half> h(n);
  std::vector<float> back(n);
  for (auto _ : state) {
    cast_f32_to_f16(f, h);
    cast_f16_to_f32(h, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_Fp16Cast)->Arg(1 << 14)->Arg(1 << 18);

void BM_AdamStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AdamConfig cfg;
  auto w = randn(n);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  const auto g = randn(n);
  std::int64_t step = 0;
  for (auto _ : state) {
    adam_step(cfg, ++step, w, m, v, g);
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["Melem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AdamStep)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
