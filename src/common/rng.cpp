#include "common/rng.hpp"

#include <cmath>

namespace zi {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

// Chain two mixes so that nearby (stream, counter) pairs decorrelate: draw
// i of a stream is mix64(key + i), with key = mix64(seed ^ mix64(stream)).
std::uint64_t stream_key(std::uint64_t seed, std::uint64_t stream) noexcept {
  return mix64(seed ^ mix64(stream));
}

double unit(std::uint64_t bits) noexcept {
  // Top 53 bits → double in [0, 1).
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

// Box–Muller on draws 2i and 2i+1 of a dedicated sub-stream: a tag folded
// into the counter domain keeps normal and uniform draws at the same index
// apart. Only the cosine is used, so element i never depends on i ± 1.
float normal(std::uint64_t key, std::uint64_t i) noexcept {
  const std::uint64_t base = 0x5DEECE66Dull + 2 * i;
  double u1 = unit(mix64(key + base));
  const double u2 = unit(mix64(key + base + 1));
  if (u1 <= 0.0) u1 = 1e-300;  // avoid log(0)
  const double r = std::sqrt(-2.0 * std::log(u1));
  return static_cast<float>(r * std::cos(2.0 * M_PI * u2));
}

}  // namespace

std::uint64_t Rng::at(std::uint64_t i) const noexcept {
  return mix64(stream_key(seed_, stream_) + i);
}

double Rng::next_uniform() noexcept { return uniform_at(counter_++); }

double Rng::uniform_at(std::uint64_t i) const noexcept { return unit(at(i)); }

float Rng::next_normal() noexcept {
  const float v = normal_at(counter_);
  ++counter_;
  return v;
}

float Rng::normal_at(std::uint64_t i) const noexcept {
  return normal(stream_key(seed_, stream_), i);
}

void Rng::normals_at(std::uint64_t first, float scale,
                     std::span<float> out) const noexcept {
  const std::uint64_t key = stream_key(seed_, stream_);
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = normal(key, first + j) * scale;
  }
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  // Modulo bias is negligible for n << 2^64 (largest n used here is ~1e9).
  return n == 0 ? 0 : next_u64() % n;
}

}  // namespace zi
