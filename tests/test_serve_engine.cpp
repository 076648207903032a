// ServeEngine integration: continuous batching over the weight-streaming
// core, run inside real multi-rank worlds with NVMe parameter shards.
//
// The acceptance property (the serving analogue of the training
// bit-identity tables): a 4-rank ZeRO-3 + NVMe ServeEngine run with many
// concurrent request streams under continuous batching produces token
// streams bit-identical to (a) a sequential max_batch=1 control and (b) a
// full-window recompute greedy decode through StreamEngine::forward_logits
// — batching, KV tiering, and admission order never change values.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "model/gpt.hpp"
#include "model/local_store.hpp"
#include "serve/serve_engine.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

GptConfig serve_model() {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.seq = 24;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.tie_embeddings = true;
  cfg.checkpoint_activations = false;
  return cfg;
}

// Deterministic synthetic request streams: id i gets a prompt of length
// 3 + (i % 4) over a fixed periodic vocabulary walk.
std::vector<ServeRequest> make_requests(int n) {
  std::vector<ServeRequest> reqs;
  for (int i = 0; i < n; ++i) {
    ServeRequest r;
    r.id = i;
    const int len = 3 + (i % 4);
    for (int t = 0; t < len; ++t) {
      r.prompt.push_back(static_cast<std::int32_t>((i * 7 + t * 3 + 1) % 31));
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

struct ServeOutcome {
  std::vector<std::vector<std::int32_t>> tokens;  // by request id
  ServeReport report;
  std::vector<RequestReport> request_reports;
  std::uint64_t kv_fetch_bytes = 0;
  std::uint64_t kv_spill_bytes = 0;
  std::uint64_t kv_fetches = 0;  // KV transfers per route
  std::uint64_t kv_spills = 0;
  std::uint64_t param_fetch_bytes = 0;  // NVMe shard reads
};

ServeOutcome run_serve(int world, int max_batch, Placement params,
                       KvTier tier, const std::vector<ServeRequest>& requests,
                       const fs::path& dir, const std::string& log_path) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.param_placement = params;
  cfg.nvme_dir = dir.string();
  cfg.prefetch_depth = 2;
  cfg.persistence_threshold_elems = 32;

  ServeConfig scfg;
  scfg.max_batch = max_batch;
  scfg.max_new_tokens = 4;
  scfg.kv_tier = tier;
  scfg.request_log = log_path;

  ServeOutcome out;
  AioEngine aio;
  run_ranks(world, [&](Communicator& comm) {
    Gpt model(serve_model());
    StreamEngine eng(model, comm, aio, cfg);
    ServeEngine serve(eng, model, scfg);
    std::vector<ServeResult> results = serve.run(requests);
    if (comm.rank() == 0) {
      for (ServeResult& r : results) {
        out.tokens.push_back(std::move(r.tokens));
        out.request_reports.push_back(r.report);
      }
      out.report = serve.report();
      const auto st = eng.resources().mover().stats();
      out.kv_fetch_bytes = st.route(Route::kKvFetch).bytes;
      out.kv_spill_bytes = st.route(Route::kKvSpill).bytes;
      out.kv_fetches = st.route(Route::kKvFetch).transfers;
      out.kv_spills = st.route(Route::kKvSpill).transfers;
      out.param_fetch_bytes = st.route(Route::kNvmeFetch).bytes;
    }
  });
  return out;
}

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_serve_engine_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// The acceptance run: 4 ranks, 10 concurrent request streams through 4
// slots, KV on NVMe, per-request JSONL emitted — bit-identical to the
// sequential control.
TEST_F(ServeEngineTest, FourRankContinuousBatchingBitIdenticalToSequential) {
  const std::vector<ServeRequest> reqs = make_requests(10);
  const std::string log = (dir_ / "serve.jsonl").string();
  const ServeOutcome batched =
      run_serve(4, /*max_batch=*/4, Placement::kNvme, KvTier::kNvme, reqs,
                dir_, log);
  const ServeOutcome sequential =
      run_serve(4, /*max_batch=*/1, Placement::kNvme, KvTier::kNvme, reqs,
                dir_, "");

  ASSERT_EQ(batched.tokens.size(), reqs.size());
  EXPECT_EQ(batched.tokens, sequential.tokens);
  for (const auto& stream : batched.tokens) EXPECT_EQ(stream.size(), 4u);

  // Aggregate accounting.
  EXPECT_EQ(batched.report.requests, 10);
  EXPECT_EQ(batched.report.tokens_out, 40);
  EXPECT_GT(batched.report.tokens_per_second, 0.0);
  EXPECT_LE(batched.report.p50_latency_seconds,
            batched.report.p99_latency_seconds);
  for (const RequestReport& r : batched.request_reports) {
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_GT(r.prefill_seconds, 0.0);
    EXPECT_EQ(r.tokens_out, 4);
  }

  // KV state actually tiered through the new DataMover routes.
  EXPECT_GT(batched.kv_fetch_bytes, 0u);
  EXPECT_GT(batched.kv_spill_bytes, 0u);

  // One JSONL line per request plus the aggregate line, all parseable
  // enough to carry the latency fields.
  std::ifstream in(log);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), reqs.size() + 1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_NE(lines[i].find("\"request_id\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"queue_seconds\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"decode_seconds\":"), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"p99_latency_seconds\":"), std::string::npos);
}

// KV tier and parameter placement are placement knobs, not values knobs:
// NVMe weight streaming decodes the same tokens as all-GPU parameters.
TEST_F(ServeEngineTest, KvTiersProduceIdenticalTokenStreams) {
  const std::vector<ServeRequest> reqs = make_requests(5);
  const ServeOutcome gpu =
      run_serve(2, 3, Placement::kNvme, KvTier::kGpu, reqs, dir_, "");
  const ServeOutcome cpu =
      run_serve(2, 3, Placement::kNvme, KvTier::kCpu, reqs, dir_, "");
  const ServeOutcome nvme =
      run_serve(2, 3, Placement::kNvme, KvTier::kNvme, reqs, dir_, "");
  const ServeOutcome all_gpu =
      run_serve(2, 3, Placement::kGpu, KvTier::kGpu, reqs, dir_, "");
  EXPECT_EQ(gpu.tokens, cpu.tokens);
  EXPECT_EQ(gpu.tokens, nvme.tokens);
  EXPECT_EQ(gpu.tokens, all_gpu.tokens);
  EXPECT_EQ(gpu.kv_fetch_bytes, 0u);  // resident: no route traffic
  EXPECT_GT(cpu.kv_fetch_bytes, 0u);
  EXPECT_GT(nvme.kv_fetch_bytes, 0u);
  EXPECT_EQ(all_gpu.param_fetch_bytes, 0u);
  EXPECT_GT(nvme.param_fetch_bytes, 0u);
}

// Stacked decode ≡ per-slot decode: every slot's rows share one matrix per
// layer, so the batch composition changes every step (prefills admitted
// next to decodes as slots free up), yet each request's tokens and every
// KV transfer match the one-request-at-a-time run, on every KV tier.
TEST_F(ServeEngineTest, StackedDecodeMatchesOneSlotAtATime) {
  // Staggered arrivals admit prefills next to running decodes.
  std::vector<ServeRequest> reqs = make_requests(10);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].arrival_seconds = 0.0005 * static_cast<double>(i);
  }
  // True if some request was admitted after another had its first token
  // but before that one finished: one step then held a prefill and a
  // decode.
  auto mixed = [](const std::vector<RequestReport>& reports,
                  const std::vector<ServeRequest>& requests) {
    std::vector<double> admit, first, end;
    for (const RequestReport& r : reports) {
      const double a =
          requests[static_cast<std::size_t>(r.request_id)].arrival_seconds +
          r.queue_seconds;
      admit.push_back(a);
      first.push_back(a + r.prefill_seconds);
      end.push_back(a + r.prefill_seconds + r.decode_seconds);
    }
    for (std::size_t i = 0; i < admit.size(); ++i) {
      for (std::size_t j = 0; j < admit.size(); ++j) {
        if (admit[j] > first[i] && admit[j] < end[i]) return true;
      }
    }
    return false;
  };
  for (const KvTier tier : {KvTier::kGpu, KvTier::kCpu, KvTier::kNvme}) {
    const ServeOutcome single =
        run_serve(2, 1, Placement::kNvme, tier, reqs, dir_, "");
    ASSERT_EQ(single.tokens.size(), reqs.size());
    for (const int max_batch : {3, 8}) {
      const ServeOutcome stacked =
          run_serve(2, max_batch, Placement::kNvme, tier, reqs, dir_, "");
      const std::string what =
          std::string(kv_tier_name(tier)) + " max_batch " +
          std::to_string(max_batch);
      EXPECT_TRUE(mixed(stacked.request_reports, reqs)) << what;
      EXPECT_EQ(stacked.tokens, single.tokens) << what;
      EXPECT_EQ(stacked.kv_fetches, single.kv_fetches) << what;
      EXPECT_EQ(stacked.kv_spills, single.kv_spills) << what;
      EXPECT_EQ(stacked.kv_fetch_bytes, single.kv_fetch_bytes) << what;
      EXPECT_EQ(stacked.kv_spill_bytes, single.kv_spill_bytes) << what;
    }
  }
}

// The model contract under the engine: one decode_layer call over stacked
// segments (a prefill between two decodes) produces the same rows, the
// same appended K/V rows and the same acquire/release sequence as one call
// per segment, bit for bit.
TEST(StackedDecode, LayerOutputsAndKvMatchPerSegmentCalls) {
  const GptConfig cfg = serve_model();
  Gpt model(cfg);
  LocalParamStore store(model);
  const std::int64_t dim = model.kv_dim();
  const auto slot_floats = static_cast<std::size_t>(cfg.layers * cfg.seq * dim);

  // Per-slot K and V caches for every layer; acquire/release are logged.
  struct Caches final : KvLender {
    std::vector<std::vector<float>> k, v;
    std::vector<int> slot_of;  // segment -> slot
    std::int64_t layer = 0, seq = 0, dim = 0;
    std::vector<std::string> log;
    KvLayerView acquire(std::size_t s) override {
      log.push_back("acquire " + std::to_string(slot_of[s]));
      const std::size_t off = static_cast<std::size_t>(layer * seq * dim);
      return {k[static_cast<std::size_t>(slot_of[s])].data() + off,
              v[static_cast<std::size_t>(slot_of[s])].data() + off};
    }
    void release(std::size_t s) override {
      log.push_back("release " + std::to_string(slot_of[s]));
    }
  };
  Caches stacked;
  stacked.k.assign(3, std::vector<float>(slot_floats, 0.0f));
  stacked.v = stacked.k;
  stacked.seq = cfg.seq;
  stacked.dim = dim;

  // Slots 0 and 2 hold earlier context (prompts of 4 and 6 rows).
  const std::vector<std::int32_t> ctx0 = {3, 1, 4, 1};
  const std::vector<std::int32_t> ctx2 = {2, 7, 1, 8, 2, 8};
  for (const auto& [slot, ctx] :
       {std::pair<int, const std::vector<std::int32_t>*>{0, &ctx0},
        {2, &ctx2}}) {
    const DecodeSegment seg{static_cast<std::int64_t>(ctx->size()), 0};
    stacked.slot_of = {slot};
    Tensor x = model.embed_rows(*ctx, {&seg, 1});
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
      stacked.layer = l;
      x = model.decode_layer(l, x, {&seg, 1}, stacked);
    }
  }
  Caches per_segment = stacked;
  stacked.log.clear();
  per_segment.log.clear();

  // This step: slot 0 decodes at 4, slot 1 prefills 5 rows, slot 2
  // decodes at 6.
  const std::vector<DecodeSegment> segs = {{1, 4}, {5, 0}, {1, 6}};
  const std::vector<std::int32_t> tokens = {5, 9, 2, 6, 5, 3, 9};
  stacked.slot_of = {0, 1, 2};
  Tensor x = model.embed_rows(tokens, segs);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    stacked.layer = l;
    x = model.decode_layer(l, x, segs, stacked);
  }

  std::int64_t row0 = 0;
  for (std::size_t s = 0; s < segs.size(); ++s) {
    per_segment.slot_of = {static_cast<int>(s)};
    const std::span<const std::int32_t> seg_tokens(
        tokens.data() + row0, static_cast<std::size_t>(segs[s].rows));
    Tensor xs = model.embed_rows(seg_tokens, {&segs[s], 1});
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
      per_segment.layer = l;
      xs = model.decode_layer(l, xs, {&segs[s], 1}, per_segment);
    }
    EXPECT_EQ(std::memcmp(xs.data<float>(), x.data<float>() + row0 * dim,
                          xs.nbytes()),
              0)
        << "segment " << s;
    row0 += segs[s].rows;
  }
  for (std::size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(stacked.k[slot], per_segment.k[slot]) << "K of slot " << slot;
    EXPECT_EQ(stacked.v[slot], per_segment.v[slot]) << "V of slot " << slot;
  }
  // Per layer, the stacked call pages the slots in slot order, each
  // released before the next is acquired.
  std::vector<std::string> want;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (int slot = 0; slot < 3; ++slot) {
      want.push_back("acquire " + std::to_string(slot));
      want.push_back("release " + std::to_string(slot));
    }
  }
  EXPECT_EQ(stacked.log, want);
}

// Incremental KV decode == full-window recompute, request by request.
TEST_F(ServeEngineTest, MatchesFullRecomputeGreedyDecode) {
  const std::vector<ServeRequest> reqs = make_requests(3);
  const ServeOutcome served =
      run_serve(2, 2, Placement::kNvme, KvTier::kCpu, reqs, dir_, "");

  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.param_placement = Placement::kNvme;
  cfg.nvme_dir = dir_.string();
  cfg.prefetch_depth = 2;
  cfg.persistence_threshold_elems = 32;
  std::vector<std::vector<std::int32_t>> recomputed(reqs.size());
  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(serve_model());
    StreamEngine eng(model, comm, aio, cfg);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      std::vector<std::int32_t> window = reqs[i].prompt;
      std::vector<std::int32_t> generated;
      for (int t = 0; t < 4; ++t) {
        const Tensor logits = eng.forward_logits(window);
        const std::int32_t tok = StreamEngine::argmax_row(
            logits, static_cast<std::int64_t>(window.size()) - 1);
        window.push_back(tok);
        generated.push_back(tok);
      }
      if (comm.rank() == 0) recomputed[i] = std::move(generated);
    }
  });
  EXPECT_EQ(served.tokens, recomputed);
}

// Open-loop arrivals: later arrivals queue (FIFO) and still complete with
// the same token streams; queue time is accounted per request.
TEST_F(ServeEngineTest, StaggeredArrivalsGateAdmissionWithoutChangingTokens) {
  std::vector<ServeRequest> staggered = make_requests(4);
  staggered[2].arrival_seconds = 0.02;
  staggered[3].arrival_seconds = 0.05;
  const ServeOutcome open_loop =
      run_serve(1, 2, Placement::kNvme, KvTier::kCpu, staggered, dir_, "");
  const ServeOutcome all_at_zero =
      run_serve(1, 2, Placement::kNvme, KvTier::kCpu, make_requests(4), dir_,
                "");
  EXPECT_EQ(open_loop.tokens, all_at_zero.tokens);
  ASSERT_EQ(open_loop.request_reports.size(), 4u);
  for (const RequestReport& r : open_loop.request_reports) {
    EXPECT_GE(r.queue_seconds, 0.0);
  }
}

}  // namespace
}  // namespace zi
