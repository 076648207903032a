// Deterministic counter-based random number generation.
//
// Reproducibility across data-parallel degrees is essential for the ZeRO ≡
// DDP equivalence tests: every rank must be able to materialize exactly the
// same parameter initialization for the slice it owns, regardless of how
// many ranks exist. A counter-based generator (splitmix64 applied to a
// (seed, stream, counter) triple) gives random access without shared state.
#pragma once

#include <cstdint>
#include <span>

namespace zi {

/// Mix a 64-bit value (splitmix64 finalizer). Good avalanche behaviour.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Counter-based RNG: value i of stream s under seed k is a pure function
/// of (k, s, i). Copyable; copies advance independently.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept
      : seed_(seed), stream_(stream) {}

  /// Random access: the i-th raw 64-bit draw of this (seed, stream).
  std::uint64_t at(std::uint64_t i) const noexcept;

  /// Sequential draws.
  std::uint64_t next_u64() noexcept { return at(counter_++); }

  /// Uniform in [0, 1).
  double next_uniform() noexcept;
  /// Uniform in [0, 1) at position i without advancing.
  double uniform_at(std::uint64_t i) const noexcept;

  /// Standard normal via Box–Muller on two counter draws.
  float next_normal() noexcept;
  /// Standard normal at position i (consumes positions 2i and 2i+1 of a
  /// dedicated sub-stream so interleaving with next_u64 is safe).
  float normal_at(std::uint64_t i) const noexcept;
  /// out[j] = normal_at(first + j) * scale, with the stream key mixed once
  /// for the whole span.
  void normals_at(std::uint64_t first, float scale,
                  std::span<float> out) const noexcept;

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) noexcept;

  std::uint64_t counter() const noexcept { return counter_; }
  void set_counter(std::uint64_t c) noexcept { counter_ = c; }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t counter_ = 0;
};

}  // namespace zi
