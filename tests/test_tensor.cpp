#include <gtest/gtest.h>

#include "common/error.hpp"
#include "tensor/cast.hpp"
#include "tensor/tensor.hpp"

namespace zi {
namespace {

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4}, DType::kF32);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.ndim(), 3u);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.nbytes(), 24u * 4u);
  EXPECT_EQ(t.to_string(), "f32[2, 3, 4]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({8}, DType::kF32);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(t.get(i), 0.0f);
}

TEST(Tensor, FillGetSet) {
  Tensor t({4}, DType::kF32);
  t.fill(3.5f);
  EXPECT_EQ(t.get(2), 3.5f);
  t.set(2, -1.0f);
  EXPECT_EQ(t.get(2), -1.0f);
  EXPECT_EQ(t.get(3), 3.5f);
}

TEST(Tensor, HalfStorage) {
  Tensor t({4}, DType::kF16);
  EXPECT_EQ(t.nbytes(), 8u);
  t.set(0, 1.5f);
  EXPECT_EQ(t.get(0), 1.5f);
  // fp16 rounding is visible through set/get.
  t.set(1, 1.0f + 1e-5f);
  EXPECT_EQ(t.get(1), 1.0f);
  half* p = t.data<half>();
  EXPECT_EQ(p[0].bits(), half(1.5f).bits());
}

TEST(Tensor, DtypeMismatchThrows) {
  Tensor t({4}, DType::kF16);
  EXPECT_THROW(t.data<float>(), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a({4}, DType::kF32);
  a.fill(1.0f);
  Tensor b = a.clone();
  b.set(0, 9.0f);
  EXPECT_EQ(a.get(0), 1.0f);
  EXPECT_EQ(b.get(0), 9.0f);
}

TEST(Tensor, CopyFromChecksShape) {
  Tensor a({4}, DType::kF32);
  Tensor b({5}, DType::kF32);
  EXPECT_THROW(a.copy_from(b), Error);
  Tensor c({4}, DType::kF16);
  EXPECT_THROW(a.copy_from(c), Error);
}

TEST(Tensor, ViewSharesMemory) {
  std::vector<std::byte> buf(16 * sizeof(float));
  Tensor v = Tensor::view({4, 4}, DType::kF32, buf.data());
  v.set(5, 7.0f);
  EXPECT_EQ(reinterpret_cast<float*>(buf.data())[5], 7.0f);
}

TEST(Tensor, OutOfRangeAccessThrows) {
  Tensor t({4}, DType::kF32);
  EXPECT_THROW(t.get(4), Error);
  EXPECT_THROW(t.set(-1, 0.0f), Error);
}

TEST(Cast, RoundtripF32F16F32) {
  Tensor a({5}, DType::kF32);
  const float vals[] = {0.0f, 1.0f, -2.5f, 1024.0f, 0.125f};
  for (int i = 0; i < 5; ++i) a.set(i, vals[i]);
  Tensor h = cast(a, DType::kF16);
  Tensor back = cast(h, DType::kF32);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(back.get(i), vals[i]);
}

TEST(Cast, RoundingVisible) {
  Tensor a({1}, DType::kF32);
  a.set(0, 2049.0f);  // fp16 ulp at 2048 is 2 → rounds to even (2048)
  Tensor h = cast(a, DType::kF16);
  EXPECT_EQ(h.get(0), 2048.0f);
}

TEST(Cast, SameDtypeIsCopy) {
  Tensor a({3}, DType::kF32);
  a.fill(4.0f);
  Tensor b = cast(a, DType::kF32);
  b.set(0, 1.0f);
  EXPECT_EQ(a.get(0), 4.0f);
}

TEST(Cast, SpanConversions) {
  std::vector<float> f = {1.0f, -3.0f, 0.5f};
  std::vector<half> h(3);
  floats_to_halves(f, h);
  std::vector<float> back(3);
  halves_to_floats(h, back);
  EXPECT_EQ(back, f);
}

}  // namespace
}  // namespace zi
