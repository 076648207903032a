// Observability layer tests: Tracer ring buffers and Chrome trace-event
// export, MetricsSink JSONL step reports, env-var activation, and the
// acceptance criterion — a short ZeRO-3 + NVMe run must produce spans from
// all four layers (engine phase, coordinator gather/prefetch, AIO
// sub-request, collective) on named per-thread tracks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/coordinator.hpp"
#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

// Structural JSON check: strings/escapes honored, braces/brackets balanced,
// no trailing garbage. Enough to guarantee Perfetto/chrome://tracing can
// parse the document without pulling in a JSON library.
bool json_structurally_valid(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool seen_root = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        if (seen_root && stack.empty()) return false;  // trailing garbage
        seen_root = true;
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return seen_root && stack.empty() && !in_string;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_obs_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().set_output_path({});  // defang the atexit flush
    Tracer::instance().reset();
    MetricsSink::instance().close();
    ::unsetenv("ZI_TRACE");
    ::unsetenv("ZI_METRICS");
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

GptConfig tiny_model() {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.checkpoint_activations = false;
  return cfg;
}

TEST_F(ObsTest, FormatEventRendersLegacyStrings) {
  DataMovementEvent e;
  e.kind = DataMovementEvent::Kind::kGather;
  e.param = "m.a.w";
  e.tier = Placement::kNvme;
  e.for_backward = true;
  EXPECT_EQ(format_event(e), "allgather  m.a.w  <- NVMe  (for backward)");
  e.broadcast = true;
  e.for_backward = false;
  EXPECT_EQ(format_event(e), "broadcast  m.a.w  <- NVMe  (for forward)");
  e.kind = DataMovementEvent::Kind::kRelease;
  EXPECT_EQ(format_event(e), "release    m.a.w");
  e.kind = DataMovementEvent::Kind::kPrefetch;
  e.pinned_staging = true;
  EXPECT_EQ(format_event(e), "prefetch   m.a.w  (async, pinned buffer)");
  e.pinned_staging = false;
  EXPECT_EQ(format_event(e), "prefetch   m.a.w  (async, heap staging)");
  e.kind = DataMovementEvent::Kind::kReduceScatter;
  e.tier = Placement::kCpu;
  EXPECT_EQ(format_event(e), "reducescat m.a.w  -> grad shard on CPU");
}

TEST_F(ObsTest, DisabledMacrosRecordNothing) {
  ASSERT_FALSE(Tracer::enabled());
  const auto before = Tracer::instance().stats().events_recorded;
  ZI_TRACE_SPAN("test", "never");
  ZI_TRACE_INSTANT("test", "never");
  EXPECT_EQ(Tracer::instance().stats().events_recorded, before);
}

TEST_F(ObsTest, SpanAndInstantExportAsChromeTraceJson) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  Tracer::set_thread_name("main");
  {
    ZI_TRACE_SPAN("test", "outer", "\"k\":1");
    ZI_TRACE_INSTANT("test", "tick");
  }
  tracer.set_enabled(false);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_structurally_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":1"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_GE(tracer.stats().events_recorded, 2u);
}

TEST_F(ObsTest, RingWrapOverwritesOldestAndCountsDrops) {
  Tracer& tracer = Tracer::instance();
  tracer.set_ring_capacity(8);
  tracer.set_enabled(true);
  // Fresh thread → fresh ring with the small capacity.
  std::thread t([&] {
    Tracer::set_thread_name("wrap");
    for (int i = 0; i < 100; ++i) {
      tracer.record_instant("test", "e" + std::to_string(i));
    }
  });
  t.join();
  tracer.set_enabled(false);
  const auto stats = tracer.stats();
  EXPECT_GE(stats.events_dropped, 92u);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_structurally_valid(json)) << json;
  EXPECT_EQ(json.find("\"name\":\"e0\""), std::string::npos);  // overwritten
  EXPECT_NE(json.find("\"name\":\"e99\""), std::string::npos);  // newest kept
  tracer.set_ring_capacity(1 << 16);
}

// Every barrier round inside a collective is a comm/wait span, and exactly
// one member per round, the arrival that released it, carries "last":1.
TEST_F(ObsTest, CollectiveWaitSpansMarkTheReleasingArrival) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  constexpr int kRanks = 3;
  run_ranks(kRanks, [](Communicator& comm) {
    std::vector<float> send(4, static_cast<float>(comm.rank()));
    std::vector<float> recv(4 * kRanks);
    for (int i = 0; i < 5; ++i) comm.allgather<float>(send, recv);
  });
  tracer.set_enabled(false);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_structurally_valid(json));
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  const std::size_t waits = count("\"name\":\"wait\"");
  const std::size_t lasts = count("\"last\":1");
  EXPECT_GE(lasts, 10u) << "two rounds per allgather";
  EXPECT_EQ(waits, kRanks * lasts) << "one releasing arrival per round";
}

// The acceptance criterion: a 3-step ZeRO-3 + NVMe run with tracing on
// yields a valid Chrome trace with spans from all four layers, one track
// per rank thread plus the AIO pool threads.
TEST_F(ObsTest, ZeroThreeNvmeRunTracesAllFourLayers) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);

  const GptConfig mc = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir_ / "trace").string();
  cfg.loss_scale.init_scale = 1024.0f;
  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(mc.seq), 1);
    std::vector<std::int32_t> targets(tokens.size(), 2);
    for (int s = 0; s < 3; ++s) engine.train_step(tokens, targets);
  });
  tracer.set_enabled(false);

  const std::string json = tracer.export_json();
  ASSERT_TRUE(json_structurally_valid(json));
  // All four instrumentation layers present…
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"coord\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"comm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"aio\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mem\""), std::string::npos);
  // …with the expected span names.
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fwd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bwd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"opt\""), std::string::npos);
  EXPECT_NE(json.find("gather:"), std::string::npos);
  EXPECT_NE(json.find("prefetch:"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"allgather\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"reduce_scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arena_alloc\""), std::string::npos);
  // One named track per rank thread plus the AIO workers.
  EXPECT_NE(json.find("\"name\":\"rank0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"aio0\""), std::string::npos);
  // write_json round-trips to disk.
  const std::string path = (dir_ / "trace.json").string();
  ASSERT_TRUE(tracer.write_json(path));
  EXPECT_GT(fs::file_size(path), 0u);
}

TEST_F(ObsTest, MetricsSinkWritesOneJsonLinePerStep) {
  const std::string path = (dir_ / "metrics.jsonl").string();
  MetricsSink::instance().open(path);
  ASSERT_TRUE(MetricsSink::enabled());

  const GptConfig mc = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir_ / "metrics").string();
  cfg.loss_scale.init_scale = 1024.0f;
  AioEngine aio;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(mc.seq), 1);
    std::vector<std::int32_t> targets(tokens.size(), 2);
    for (int s = 0; s < 3; ++s) engine.train_step(tokens, targets);
  });
  MetricsSink::instance().close();
  EXPECT_FALSE(MetricsSink::enabled());

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(json_structurally_valid(line)) << line;
    EXPECT_NE(line.find("\"step\":" + std::to_string(lines)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"step_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"allgather_bytes\":"), std::string::npos);
    EXPECT_NE(line.find("\"aio_bytes_read\":"), std::string::npos);
    EXPECT_NE(line.find("\"prefetch_hit_rate\":"), std::string::npos);
    EXPECT_NE(line.find("\"gpu_peak\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 3);  // one report per (step, rank)
}

// A ZeRO-3 step keeps every GPU byte in the device arena (gathered fp16
// parameters, fp32 gradient buffers) and none in the accountant, so the
// report's GPU fields must come from the arena.
TEST_F(ObsTest, Zero3StepReportsTheArenaGpuPeak) {
  const std::string path = (dir_ / "gpu_peak.jsonl").string();
  MetricsSink::instance().open(path);
  const GptConfig mc = tiny_model();
  EngineConfig cfg = preset_zero3();
  cfg.nvme_dir = (dir_ / "gpu_peak").string();
  std::uint64_t arena_peak = 0;
  std::uint64_t arena_used = 0;
  AioEngine aio;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(mc.seq), 1);
    std::vector<std::int32_t> targets(tokens.size(), 2);
    engine.train_step(tokens, targets);
    arena_peak = engine.resources().gpu().stats().peak_used;
    arena_used = engine.resources().gpu().used();
  });
  MetricsSink::instance().close();

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto field = [&line](const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    return std::stoull(line.substr(at + key.size() + 3));
  };
  EXPECT_GT(arena_peak, 0u);
  EXPECT_EQ(field("gpu_peak"), arena_peak);
  EXPECT_EQ(field("gpu_used"), arena_used);
  EXPECT_EQ(line.find("\"arena_peak\""), std::string::npos);
}

TEST_F(ObsTest, StepReportJsonLineIsSelfContained) {
  StepReport r;
  r.step = 7;
  r.rank = 1;
  r.world = 4;
  r.loss = 2.5f;
  r.skipped = true;
  r.prefetch_hit_rate = 0.75;
  r.allgather_bytes = 12345;
  const std::string line = r.to_json_line();
  EXPECT_TRUE(json_structurally_valid(line)) << line;
  EXPECT_NE(line.find("\"step\":7"), std::string::npos);
  EXPECT_NE(line.find("\"rank\":1"), std::string::npos);
  EXPECT_NE(line.find("\"world\":4"), std::string::npos);
  EXPECT_NE(line.find("\"skipped\":true"), std::string::npos);
  EXPECT_NE(line.find("\"prefetch_hit_rate\":0.75"), std::string::npos);
  EXPECT_NE(line.find("\"allgather_bytes\":12345"), std::string::npos);
}

TEST_F(ObsTest, EnvVarsActivateTracerAndMetrics) {
  const std::string tpath = (dir_ / "env_trace.json").string();
  const std::string mpath = (dir_ / "env_metrics.jsonl").string();
  ::setenv("ZI_TRACE", tpath.c_str(), 1);
  ::setenv("ZI_METRICS", mpath.c_str(), 1);
  Tracer::instance().init_from_env();
  MetricsSink::instance().init_from_env();
  EXPECT_TRUE(Tracer::enabled());
  EXPECT_TRUE(MetricsSink::enabled());

  ZI_TRACE_INSTANT("test", "env");
  Tracer::instance().flush();
  ASSERT_TRUE(fs::exists(tpath));
  std::ifstream in(tpath);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(json_structurally_valid(ss.str()));
  EXPECT_NE(ss.str().find("\"name\":\"env\""), std::string::npos);

  StepReport r;
  r.step = 1;
  MetricsSink::instance().write(r);
  MetricsSink::instance().close();
  ASSERT_TRUE(fs::exists(mpath));
  EXPECT_GT(fs::file_size(mpath), 0u);
}

}  // namespace
}  // namespace zi
