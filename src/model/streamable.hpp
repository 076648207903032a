// Forward-only model interfaces for the streamed-execution core.
//
// StreamableModel is what core/stream_engine.hpp drives: a hook-firing
// forward that produces next-token logits, usable under any ZeRO placement
// because every parameter access goes through the module hook protocol.
//
// DecodableModel extends it with the layer-by-layer incremental decode
// contract the serving engine (src/serve) needs: embed the new rows of
// every in-flight request, push them through one transformer layer at a
// time against per-request KV caches, then project final hidden rows to
// logits. The requests' rows travel stacked in one matrix, so each layer
// runs its LayerNorms, projections and MLP once per decode step however
// many requests are in flight; only attention runs per request. The
// layer's weights are therefore gathered, and widened, once per decode
// step — the weight-streaming batching effect the paper's bandwidth
// analysis (Sec. 4) prices.
//
// Bit-exactness contract: all leaf kernels are row-wise and causal, so for
// any prefix length r, decode_layer() over cached K/V rows [0, r] produces
// the same bytes as row r of a full-window forward (softmax over the
// padded tail contributes exactly 0.0), and a row's value never depends on
// which other rows share its stack. The serving tests pin this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "model/module.hpp"

namespace zi {

/// One layer's view of a request's KV cache: K and V rows packed
/// [position, kv_dim] (all heads interleaved exactly like the QKV
/// activation layout). The spans must cover start_pos + new_rows rows;
/// decode appends the new rows in place.
struct KvLayerView {
  float* k = nullptr;
  float* v = nullptr;
};

/// One request's rows in a stacked decode batch: `rows` consecutive rows
/// of the stack, at absolute positions [start_pos, start_pos + rows).
/// Either start_pos == 0 (prefill) or rows == 1 (single-token decode).
struct DecodeSegment {
  std::int64_t rows = 0;
  std::int64_t start_pos = 0;
};

/// Lends each segment's KV cache to a layer's attention, one segment at a
/// time in segment order: acquire(s) right before segment s attends,
/// release(s) right after (so one KV working buffer serves every request).
class KvLender {
 public:
  /// Views covering segment s's cached rows [0, start_pos) plus room for
  /// the rows it appends.
  virtual KvLayerView acquire(std::size_t segment) = 0;
  /// Segment s has appended its rows [start_pos, start_pos + rows).
  virtual void release(std::size_t segment) = 0;

 protected:
  ~KvLender() = default;
};

/// A model the forward-only StreamEngine can execute.
class StreamableModel {
 public:
  virtual ~StreamableModel() = default;

  /// The module tree (hook installation target for the coordinator).
  virtual Module& module() = 0;

  /// Hook-firing inference forward: logits [tokens.size(), vocab].
  virtual Tensor forward_logits(std::span<const std::int32_t> tokens) = 0;
};

/// A model that additionally supports per-layer incremental (KV-cached)
/// decoding — the contract ServeEngine schedules request streams against.
class DecodableModel : public StreamableModel {
 public:
  /// Maximum context rows (prompt + generated) per request.
  virtual std::int64_t context_window() const = 0;
  /// Number of decode_layer() stages.
  virtual std::int64_t num_decode_layers() const = 0;
  /// Floats per KV row (one K row and one V row each have this many).
  virtual std::int64_t kv_dim() const = 0;
  /// Vocabulary size of the logits produced by lm_logits().
  virtual std::int64_t vocab_size() const = 0;

  /// Embed the stacked new rows of `segments` (`tokens` holds each
  /// segment's tokens in order): returns [tokens.size(), hidden]. Fires the
  /// embedding hooks.
  virtual Tensor embed_rows(std::span<const std::int32_t> tokens,
                            std::span<const DecodeSegment> segments) = 0;

  /// Run layer `layer` over the stacked rows `x` ([rows, hidden]) of
  /// `segments`. Segment s reads its K/V rows [0, start_pos) from the view
  /// `kv` lends it, appends the layer's new K/V rows at [start_pos, ...),
  /// and gets its rows of the returned layer output.
  virtual Tensor decode_layer(std::int64_t layer, const Tensor& x,
                              std::span<const DecodeSegment> segments,
                              KvLender& kv) = 0;

  /// Final norm + LM head over hidden rows: [rows, vocab].
  virtual Tensor lm_logits(const Tensor& x) = 0;
};

}  // namespace zi
