// zi_bench — shared types of the repository benchmark.
//
// One invocation runs one workload for a fixed wall-clock window and reports
// either its end-to-end metrics (untraced) or its per-layer metrics (traced).
// The benchmark drives only the public entry points (ZeroEngine::train_step,
// StreamEngine + ServeEngine::run), times those calls from outside, and
// reads each layer's public counters before and after the window.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace zb {

/// Rank threads per world. With AioConfig::num_workers = kAioWorkers the
/// load is four busy threads, one per core of the reference host.
inline constexpr int kWorld = 2;
inline constexpr std::size_t kAioWorkers = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string trace_dir;  ///< write <workload>.trace.json here when set
  std::filesystem::path scratch_dir;  ///< NVMe swap files live under here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

/// Every workload, in the order BENCHMARK.json lists them (which also
/// records why each exists).
const std::vector<Workload>& workloads();

/// Per-layer time attribution of one traced window (see attribution.cpp).
/// Times are nanoseconds summed over every thread of the kind.
struct Attribution {
  double rank_ns = 0;          ///< bench spans on rank threads
  double unattributed_ns = 0;  ///< bench spans' self time
  double compute_ns = 0;       ///< engine/{step,fwd,bwd,forward_logits},
                               ///< serve/decode_step self time
  double opt_ns = 0;           ///< engine/opt self time
  double gather_ns = 0;        ///< coord/gather:* self time
  double reduce_ns = 0;        ///< coord/reduce:* self time
  double comm_ns = 0;          ///< comm/* self time
  double move_ns = 0;          ///< move/* self time
  double mem_ns = 0;           ///< mem/* self time
  double aio_busy_ns = 0;      ///< aio/* spans on aio worker threads
  std::vector<double> decode_step_ns;  ///< serve/decode_step on rank0
};

/// Parse the Chrome trace JSON Tracer::export_json() produces and attribute
/// self time to layers. Only spans nested inside a `bench` span count, so
/// the benchmark's own control traffic between operations is excluded.
Attribution attribute(const std::string& trace_json);

}  // namespace zb
