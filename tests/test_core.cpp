// Core-library unit tests: partitioning math, tier buffers, the state
// store's partitioned init, activation offloading, and memory-centric
// tiling (numerics + the Fig. 6b capacity protocol).
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>

#include "common/rng.hpp"
#include "core/act_offload.hpp"
#include "core/partition.hpp"
#include "core/state_store.hpp"
#include "core/tier_buffer.hpp"
#include "core/tiling.hpp"
#include "core/zero_config.hpp"
#include "model/gpt.hpp"
#include "model/local_store.hpp"
#include "model/mlp_net.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_core_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    aio_ = std::make_unique<AioEngine>();
    res_ = std::make_unique<RankResources>(
        /*rank=*/0, *aio_, /*gpu=*/32 * kMiB, /*nvme=*/64 * kMiB, dir_,
        /*pinned_bytes=*/64 * 1024, /*pinned_count=*/4);
  }
  void TearDown() override {
    res_.reset();
    aio_.reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::unique_ptr<AioEngine> aio_;
  std::unique_ptr<RankResources> res_;
};

// ---------------------------------------------------------------------------
// Partitioning

TEST(Partition, ShardSpecMath) {
  const ShardSpec s = make_shard_spec(10, 4);
  EXPECT_EQ(s.shard_elems, 3);
  EXPECT_EQ(s.padded_numel(), 12);
  EXPECT_EQ(s.begin(2), 6);
  EXPECT_EQ(s.valid_elems(0), 3);
  EXPECT_EQ(s.valid_elems(3), 1);  // elements 9..11 → only index 9 is real
  const ShardSpec even = make_shard_spec(8, 4);
  EXPECT_EQ(even.shard_elems, 2);
  EXPECT_EQ(even.padded_numel(), 8);
  const ShardSpec solo = make_shard_spec(7, 1);
  EXPECT_EQ(solo.shard_elems, 7);
}

class PartitionWorldTest : public ::testing::TestWithParam<int> {};

// Property: concatenating every rank's partitioned-init shard reproduces
// the full fp16 init exactly, for any world size — the invariant that makes
// model state independent of data-parallel degree.
TEST_P(PartitionWorldTest, ShardsConcatenateToFullInit) {
  const int world = GetParam();
  Parameter p("gpt.block0.attn.qkv.weight", {13, 7}, InitKind::kNormal, 0.02f);
  const ShardSpec spec = make_shard_spec(p.numel(), world);

  std::vector<half> assembled(static_cast<std::size_t>(spec.padded_numel()));
  for (int r = 0; r < world; ++r) {
    std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
    init_shard_fp16(p, spec, r, shard);
    std::copy(shard.begin(), shard.end(),
              assembled.begin() + spec.begin(r));
  }
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    EXPECT_EQ(assembled[static_cast<std::size_t>(i)].bits(),
              half(p.init_value(i)).bits())
        << "element " << i << " world " << world;
  }
  // Padding is zero.
  for (std::int64_t i = p.numel(); i < spec.padded_numel(); ++i) {
    EXPECT_EQ(assembled[static_cast<std::size_t>(i)].bits(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, PartitionWorldTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(Partition, ExtractShard) {
  const ShardSpec spec = make_shard_spec(6, 3);
  std::vector<half> full(6);
  for (int i = 0; i < 6; ++i) full[static_cast<std::size_t>(i)] = half(static_cast<float>(i));
  std::vector<half> shard(2);
  extract_shard_fp16(full, spec, 1, shard);
  EXPECT_EQ(shard[0].to_float(), 2.0f);
  EXPECT_EQ(shard[1].to_float(), 3.0f);
}

// ---------------------------------------------------------------------------
// TierBuffer

TEST_F(CoreTest, TierBufferRoundtripAllTiers) {
  for (const Tier tier : {Tier::kGpu, Tier::kCpu, Tier::kNvme}) {
    TierBuffer buf(*res_, tier, 4096);
    std::vector<std::byte> src(4096);
    Rng rng(5, static_cast<std::uint64_t>(tier));
    for (auto& b : src) b = static_cast<std::byte>(rng.next_u64() & 0xFF);
    buf.store(src);
    std::vector<std::byte> dst(4096);
    buf.load(dst);
    EXPECT_EQ(dst, src) << tier_name(tier);
  }
}

TEST_F(CoreTest, TierBufferOffsetIo) {
  TierBuffer buf(*res_, Tier::kNvme, 8192);
  std::vector<std::byte> a(1024, std::byte{0xAA});
  std::vector<std::byte> b(1024, std::byte{0xBB});
  buf.store(a, 0);
  buf.store(b, 4096);
  std::vector<std::byte> out(1024);
  buf.load(out, 4096);
  EXPECT_EQ(out, b);
  buf.load(out, 0);
  EXPECT_EQ(out, a);
}

TEST_F(CoreTest, TierBufferAccounting) {
  const auto before = res_->accountant().used(Tier::kCpu);
  {
    TierBuffer buf(*res_, Tier::kCpu, 10000);
    EXPECT_EQ(res_->accountant().used(Tier::kCpu), before + 10000);
  }
  EXPECT_EQ(res_->accountant().used(Tier::kCpu), before);
}

TEST_F(CoreTest, TierBufferGpuUsesArena) {
  const auto used_before = res_->gpu().used();
  TierBuffer buf(*res_, Tier::kGpu, 4096);
  EXPECT_GT(res_->gpu().used(), used_before);
  ASSERT_NE(buf.data(), nullptr);
  buf.data()[0] = std::byte{1};
}

TEST_F(CoreTest, TierBufferNvmeHasNoDirectPointer) {
  TierBuffer buf(*res_, Tier::kNvme, 4096);
  EXPECT_EQ(buf.data(), nullptr);
}

TEST_F(CoreTest, TierBufferBoundsChecked) {
  TierBuffer buf(*res_, Tier::kCpu, 100);
  std::vector<std::byte> big(200);
  EXPECT_THROW(buf.store(big), Error);
  EXPECT_THROW(buf.load(big, 50), Error);
}

// ---------------------------------------------------------------------------
// ModelStateStore

TEST_F(CoreTest, StateStorePartitionedInitMatchesLocalInit) {
  // Build a small module tree; the partitioned store (world=2, rank 0/1)
  // must hold exactly the slices of what LocalParamStore materializes.
  Linear lin("lin", 8, 6);
  lin.finalize();
  LocalParamStore local(lin);

  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.param_placement = Placement::kNvme;
  cfg.optimizer_placement = Placement::kCpu;
  cfg.nvme_dir = dir_.string();

  for (int rank = 0; rank < 2; ++rank) {
    RankResources res(rank, *aio_, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024, 2);
    ModelStateStore store(res, cfg, lin.all_parameters(), rank, /*world=*/2);
    for (Parameter* p : lin.all_parameters()) {
      const ShardSpec& spec = store.param_spec(p);
      std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
      store.load_param_shard(p, shard);
      const Tensor& full16 = local.fp16(p);
      for (std::int64_t i = 0; i < spec.valid_elems(rank); ++i) {
        EXPECT_EQ(shard[static_cast<std::size_t>(i)].bits(),
                  full16.data<half>()[spec.begin(rank) + i].bits())
            << p->name() << " rank " << rank << " i " << i;
      }
    }
  }
}

TEST_F(CoreTest, StateStoreMasterInitializedFromRoundedFp16) {
  Linear lin("lin", 4, 4);
  lin.finalize();
  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.nvme_dir = dir_.string();
  ModelStateStore store(*res_, cfg, lin.all_parameters(), 0, 1);
  Parameter* w = lin.all_parameters()[0];
  const ShardSpec& spec = store.opt_spec(w);
  std::vector<float> master(static_cast<std::size_t>(spec.shard_elems));
  store.master(w).load(
      {reinterpret_cast<std::byte*>(master.data()), master.size() * 4});
  for (std::int64_t i = 0; i < w->numel(); ++i) {
    EXPECT_EQ(master[static_cast<std::size_t>(i)],
              half(w->init_value(i)).to_float());
  }
}

// Each rank's stored fp16 parameter shard and fp32 master equal the
// per-element init function, in the uniform and the weighted layout (the
// parameter shard reuses the optimizer shard's draw when the specs agree).
TEST_F(CoreTest, StateStoreInitMatchesPerElementInitValue) {
  GptConfig mc;
  mc.vocab = 32;
  mc.seq = 8;
  mc.hidden = 16;
  mc.layers = 2;
  mc.heads = 2;
  Gpt model(mc);
  const std::vector<Parameter*> params = model.all_parameters();
  constexpr int kWorld = 2;
  for (const RankWeights& weights : {RankWeights{}, RankWeights{1.0, 3.0}}) {
    EngineConfig cfg = preset_zero_infinity_nvme();
    cfg.nvme_dir = dir_.string();
    cfg.rank_weights = weights;
    for (int rank = 0; rank < kWorld; ++rank) {
      RankResources res(rank, *aio_, 8 * kMiB, 16 * kMiB, dir_, 64 * 1024, 2);
      ModelStateStore store(res, cfg, params, rank, kWorld);
      for (Parameter* p : params) {
        const ShardSpec& spec = store.param_spec(p);
        ASSERT_EQ(store.opt_spec(p).shard_elems, spec.shard_elems);
        const auto n = static_cast<std::size_t>(spec.shard_elems);
        std::vector<half> shard(n);
        store.load_param_shard(p, shard);
        std::vector<float> master(n);
        store.master(p).load(
            {reinterpret_cast<std::byte*>(master.data()), n * sizeof(float)});
        for (std::int64_t i = 0; i < spec.shard_elems; ++i) {
          const auto k = static_cast<std::size_t>(i);
          const half want = i < spec.valid_elems(rank)
                                ? half(p->init_value(spec.begin(rank) + i))
                                : half(0.0f);
          ASSERT_EQ(shard[k].bits(), want.bits())
              << p->name() << " rank " << rank << " i " << i;
          ASSERT_EQ(master[k], want.to_float())
              << p->name() << " rank " << rank << " i " << i;
        }
      }
    }
  }
}

// Parameter::init_values draws a whole span with the stream key mixed once;
// every value must equal the per-element init_value, and every fp16 shard
// init_shard_fp16 builds from it must equal the per-element rounding, for
// every parameter of the test GPT and MLP, uniform and weighted, at world 3
// (so no parameter divides evenly).
TEST_F(CoreTest, BulkInitValuesMatchPerElementInitValue) {
  GptConfig gc;
  gc.vocab = 32;
  gc.seq = 8;
  gc.hidden = 16;
  gc.layers = 2;
  gc.heads = 2;
  Gpt gpt(gc);
  MlpClassifier mlp(MlpNetConfig{});
  std::vector<Parameter*> params = gpt.all_parameters();
  for (Parameter* p : mlp.all_parameters()) params.push_back(p);
  constexpr int kWorld = 3;
  for (const Parameter* p : params) {
    std::vector<float> all(static_cast<std::size_t>(p->numel()));
    p->init_values(0, all);
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(all[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint32_t>(p->init_value(i)))
          << p->name() << " i " << i;
    }
    for (const RankWeights& weights :
         {RankWeights{}, RankWeights{1.0, 2.0, 4.0}}) {
      const ShardSpec spec = make_shard_spec(p->numel(), kWorld, weights);
      for (int rank = 0; rank < kWorld; ++rank) {
        std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
        init_shard_fp16(*p, spec, rank, shard);
        for (std::int64_t i = 0; i < spec.shard_elems; ++i) {
          const half want = i < spec.valid_elems(rank)
                                ? half(p->init_value(spec.begin(rank) + i))
                                : half(0.0f);
          ASSERT_EQ(shard[static_cast<std::size_t>(i)].bits(), want.bits())
              << p->name() << " rank " << rank << " i " << i;
        }
      }
    }
  }
}

TEST_F(CoreTest, StateStoreGradShardRoundtripWithChunks) {
  Linear lin("lin", 16, 16);
  lin.finalize();
  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.grad_placement = Placement::kNvme;
  cfg.nvme_dir = dir_.string();
  ModelStateStore store(*res_, cfg, lin.all_parameters(), 0, 1);
  Parameter* w = lin.all_parameters()[0];
  const auto n = static_cast<std::size_t>(store.opt_spec(w).shard_elems);
  std::vector<half> grad(n);
  for (std::size_t i = 0; i < n; ++i) grad[i] = half(static_cast<float>(i) * 0.25f);
  store.store_grad_shard(w, grad);
  std::vector<half> chunk(8);
  store.load_grad_shard(w, chunk, 16);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chunk[static_cast<std::size_t>(i)].to_float(),
              static_cast<float>(16 + i) * 0.25f);
  }
}

// ---------------------------------------------------------------------------
// Activation offloaders

Tensor make_act(std::uint64_t seed) {
  Tensor t({4, 8}, DType::kF32);
  Rng rng(seed, 0);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.set(i, rng.next_normal());
  return t;
}

TEST_F(CoreTest, CpuActivationOffloaderRoundtrip) {
  CpuActivationOffloader off(*res_);
  Tensor t = make_act(1);
  off.save(3, t);
  EXPECT_EQ(res_->accountant().used(Tier::kCpu), t.nbytes());
  Tensor back = off.load(3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back.get(i), t.get(i));
  off.discard(3);
  EXPECT_EQ(res_->accountant().used(Tier::kCpu), 0u);
}

TEST_F(CoreTest, NvmeActivationOffloaderRoundtrip) {
  NvmeActivationOffloader off(*res_);
  Tensor t = make_act(2);
  off.save(0, t);
  Tensor big({64, 64}, DType::kF32);  // exceeds the pinned buffer → heap path
  big.fill(3.25f);
  off.save(1, big);
  Tensor back0 = off.load(0);
  Tensor back1 = off.load(1);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back0.get(i), t.get(i));
  EXPECT_EQ(back1.get(100), 3.25f);
  off.discard(0);
  off.discard(1);
  EXPECT_EQ(res_->accountant().used(Tier::kNvme), 0u);
}

TEST_F(CoreTest, NvmeOffloaderOverwriteSlotReplacesContents) {
  NvmeActivationOffloader off(*res_);
  Tensor a = make_act(3);
  Tensor b = make_act(4);
  off.save(7, a);
  off.save(7, b);
  Tensor back = off.load(7);
  for (std::int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(back.get(i), b.get(i));
}

TEST_F(CoreTest, OffloaderLoadFromEmptySlotThrows) {
  CpuActivationOffloader off(*res_);
  EXPECT_THROW(off.load(42), Error);
}

// ---------------------------------------------------------------------------
// Memory-centric tiling

TEST(Tiling, TiledLinearMatchesLinear) {
  const std::int64_t in = 6, out = 10, tokens = 5;
  Linear ref("ref", in, out);
  TiledLinear tiled("tiled", in, out, /*tiles=*/3);
  ref.finalize();
  tiled.finalize();
  LocalParamStore ref_store(ref);
  LocalParamStore tiled_store(tiled);

  // Copy the reference weights into the tiles (column slices).
  Parameter* rw = ref.weight();
  Parameter* rb = ref.bias();
  const auto tiled_params = tiled.all_parameters();
  for (int t = 0; t < tiled.tiles(); ++t) {
    const auto [lo, hi] = tiled.tile_range(t);
    Parameter* tw = tiled_params[static_cast<std::size_t>(2 * t)];
    Parameter* tb = tiled_params[static_cast<std::size_t>(2 * t + 1)];
    ASSERT_EQ(tw->shape()[1], hi - lo);
    for (std::int64_t r = 0; r < in; ++r) {
      for (std::int64_t c = lo; c < hi; ++c) {
        tw->full_tensor().set(r * (hi - lo) + (c - lo),
                              rw->full_tensor().get(r * out + c));
      }
    }
    for (std::int64_t c = lo; c < hi; ++c) {
      tb->full_tensor().set(c - lo, rb->full_tensor().get(c));
    }
  }

  Tensor x({tokens, in}, DType::kF32);
  Rng rng(6, 0);
  for (std::int64_t i = 0; i < x.numel(); ++i) x.set(i, rng.next_normal());

  Tensor y_ref = ref.run_forward(x.clone());
  Tensor y_tiled = tiled.run_forward(x.clone());
  for (std::int64_t i = 0; i < y_ref.numel(); ++i) {
    EXPECT_NEAR(y_ref.get(i), y_tiled.get(i), 1e-5f) << i;
  }

  Tensor dy({tokens, out}, DType::kF32);
  for (std::int64_t i = 0; i < dy.numel(); ++i) dy.set(i, rng.next_normal());
  ref_store.zero_grads();
  tiled_store.zero_grads();
  Tensor dx_ref = ref.run_backward(dy.clone());
  Tensor dx_tiled = tiled.run_backward(dy.clone());
  for (std::int64_t i = 0; i < dx_ref.numel(); ++i) {
    EXPECT_NEAR(dx_ref.get(i), dx_tiled.get(i), 1e-4f) << "dx " << i;
  }
  // Weight grads per tile equal the column slices of the reference grads.
  for (int t = 0; t < tiled.tiles(); ++t) {
    const auto [lo, hi] = tiled.tile_range(t);
    Parameter* tw = tiled_params[static_cast<std::size_t>(2 * t)];
    for (std::int64_t r = 0; r < in; ++r) {
      for (std::int64_t c = lo; c < hi; ++c) {
        EXPECT_NEAR(tw->grad_tensor().get(r * (hi - lo) + (c - lo)),
                    rw->grad_tensor().get(r * out + c), 1e-4f);
      }
    }
  }
}

TEST(Tiling, UnevenTileSplitCoversAllColumns) {
  TiledLinear tiled("t", 4, 10, 3);  // 10 columns over 3 tiles: 3/3/4 split
  std::int64_t covered = 0;
  std::int64_t prev_end = 0;
  for (int t = 0; t < tiled.tiles(); ++t) {
    const auto [lo, hi] = tiled.tile_range(t);
    EXPECT_EQ(lo, prev_end);
    EXPECT_GT(hi, lo);
    covered += hi - lo;
    prev_end = hi;
  }
  EXPECT_EQ(covered, 10);
}

TEST(Tiling, FactoryProducesPlainLinearForFactorOne) {
  auto f1 = TiledLinear::factory(1);
  auto m = f1("x", 4, 4);
  EXPECT_NE(dynamic_cast<Linear*>(m.get()), nullptr);
  auto f4 = TiledLinear::factory(4);
  auto m4 = f4("y", 4, 8);
  EXPECT_NE(dynamic_cast<TiledLinear*>(m4.get()), nullptr);
}

// The Fig. 6b protocol: a virtual 32 GB "V100" pre-fragmented into 2 GiB
// chunks. Without tiling the 16K-hidden operator needs a >2 GiB contiguous
// block and fails; tiling restores feasibility up to 64K.
TEST(Tiling, Fig6bCapacityProtocol) {
  const std::vector<std::int64_t> hiddens = {8192, 16384, 32768, 65536};

  auto fresh_arena = [] {
    auto arena = std::make_unique<DeviceArena>("v100", 32 * kGiB,
                                               DeviceArena::Mode::kVirtual);
    arena->prefragment(2 * kGiB);
    return arena;
  };

  auto a1 = fresh_arena();
  EXPECT_EQ(max_hidden_with_tiling(*a1, /*tiles=*/1, hiddens), 8192);
  auto a2 = fresh_arena();
  EXPECT_GE(max_hidden_with_tiling(*a2, /*tiles=*/4, hiddens), 16384);
  auto a3 = fresh_arena();
  EXPECT_EQ(max_hidden_with_tiling(*a3, /*tiles=*/32, hiddens), 65536);
}

// Property: feasibility is monotone in the tiling factor.
class TilingMonotoneTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TilingMonotoneTest, MaxHiddenMonotoneInTiles) {
  const std::int64_t hd = GetParam();
  bool prev_fits = false;
  for (const int tiles : {1, 2, 4, 8, 16, 32, 64}) {
    DeviceArena arena("v100", 32 * kGiB, DeviceArena::Mode::kVirtual);
    arena.prefragment(2 * kGiB);
    const bool fits = mswm_fits(arena, hd, tiles);
    EXPECT_TRUE(fits || !prev_fits)
        << "feasibility regressed at tiles=" << tiles << " hd=" << hd;
    prev_fits = fits;
  }
}

INSTANTIATE_TEST_SUITE_P(Hiddens, TilingMonotoneTest,
                         ::testing::Values(8192, 16384, 32768, 65536));

}  // namespace
}  // namespace zi
