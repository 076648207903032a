// ServeEngine — continuous-batching inference over the weight-streaming
// core (core/stream_engine.hpp).
//
// The serving engine is the payoff of the streamed-execution split: the
// same tier stack that lets training exceed HBM lets inference run models
// whose weights live on CPU/NVMe, provided requests are batched so each
// layer's gather is amortized. The engine runs a decode-step loop:
//
//   admit    — rank 0 reads the wall clock, admits arrived requests FIFO
//              into free slots (up to max_batch), and broadcasts a
//              fixed-size control vector so every rank admits identically;
//              the model step below is built from collectives, so lockstep
//              admission is a correctness requirement, not an optimization.
//   prefill  — a newly admitted request's whole prompt runs through the
//              layers in one step (rows = prompt length, positions from 0).
//   decode   — every other active request advances one token (rows = 1)
//              against its TieredKvCache state.
//   evict    — requests that reach max_new_tokens complete, free their
//              slot, and emit a RequestReport JSONL line (rank 0).
//
// Prefill and decode rows of every active slot are stacked, in slot order,
// into one matrix, so each phase (embedding, every layer, LM head) is one
// model call: LayerNorms, projections, the MLP and the residuals run once
// per step over all rows, and only attention runs per slot, paging that
// slot's KV cache in and out. Each
// parameter is therefore gathered, and widened by the kernels, exactly
// once per decode step no matter how many requests are in flight, and the
// traced prefetcher sees the same fetch sequence every step. The head
// phase projects only each slot's last row, the one argmax reads.
//
// Determinism: greedy argmax over bit-identical logits (all collectives
// are deterministic) means the token stream for a request is independent
// of batch composition — a max_batch=1 sequential run is the bit-exact
// control for any continuous-batching schedule. The serve tests pin this.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/stream_engine.hpp"
#include "obs/serve_report.hpp"
#include "serve/kv_cache.hpp"

namespace zi {

struct ServeConfig {
  /// Maximum concurrently active requests (KV slots are allocated for all
  /// of them up front).
  int max_batch = 4;
  /// Tokens generated per request before eviction.
  std::int64_t max_new_tokens = 8;
  /// Tier holding per-request KV state between decode steps.
  KvTier kv_tier = KvTier::kCpu;
  /// JSONL path for per-request latency lines (rank 0 appends one line per
  /// completed request plus a final aggregate line). Empty disables.
  std::string request_log;

  /// Read the ZI_SERVE_* knobs from the environment.
  static ServeConfig from_env();
};

struct ServeRequest {
  std::int64_t id = 0;
  std::vector<std::int32_t> prompt;
  /// Arrival offset in seconds from run() start, on rank 0's clock
  /// (open-loop traffic). 0 = already queued at start.
  double arrival_seconds = 0.0;
};

struct ServeResult {
  std::int64_t id = 0;
  std::vector<std::int32_t> tokens;  ///< the generated continuation
  RequestReport report;
};

class ServeEngine {
 public:
  /// `model` must be the same model `engine` streams (checked). The
  /// engine's coordinator is driven directly — do not interleave
  /// StreamEngine::forward_logits with run().
  ServeEngine(StreamEngine& engine, DecodableModel& model, ServeConfig config);

  /// Serve `requests` (non-decreasing arrival_seconds) to completion under
  /// continuous batching. A collective: every rank passes identical
  /// requests. Returns results in request-id order; report() holds the
  /// run aggregate afterwards.
  std::vector<ServeResult> run(const std::vector<ServeRequest>& requests);

  const ServeReport& report() const noexcept { return report_; }
  const ServeConfig& config() const noexcept { return config_; }
  TieredKvCache& kv_cache() noexcept { return kv_; }

 private:
  /// Per-slot request state across decode steps.
  struct Slot {
    bool active = false;
    bool prefilled = false;       ///< first step done, pos covers prompt
    std::size_t req = 0;          ///< index into the run's request vector
    std::int64_t pos = 0;         ///< KV rows written so far
    std::int32_t last_token = 0;  ///< input for the next decode step
    std::vector<std::int32_t> generated;
    double admit_seconds = 0.0;        ///< on the local run clock
    double first_token_seconds = 0.0;  ///< 0 until the first token lands
  };

  /// One stacked model pass over every active slot (prefill or decode as
  /// marked); appends one token per active request.
  void step_model(const std::vector<ServeRequest>& requests);

  StreamEngine& engine_;
  DecodableModel& model_;
  ServeConfig config_;
  TieredKvCache kv_;
  std::vector<Slot> slots_;
  ServeReport report_;
};

}  // namespace zi
