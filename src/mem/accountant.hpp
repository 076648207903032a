// MemoryAccountant — per-tier byte accounting across the memory hierarchy.
//
// The offload engine reports where every model-state byte lives (GPU, CPU,
// NVMe), mirroring the placement tables of the paper (Table 2). Counters are
// atomic because rank threads and I/O workers update them concurrently —
// this class is deliberately lock-free, so it carries no ZI_GUARDED_BY
// annotations (see DESIGN.md "Locking & sanitizer policy"). The peak counter
// is only monotonically approximate under concurrent add(): the CAS loop
// can miss a transient maximum, which is acceptable for reporting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace zi {

/// Memory tier in the heterogeneous hierarchy (Fig. 2b).
enum class Tier : int { kGpu = 0, kCpu = 1, kNvme = 2 };

inline constexpr int kNumTiers = 3;

const char* tier_name(Tier t);

/// One tier's bytes in use and their peak.
struct TierBytes {
  std::uint64_t used = 0;
  std::uint64_t peak = 0;
};

class MemoryAccountant {
 public:
  void add(Tier tier, std::uint64_t bytes) {
    used_[idx(tier)].fetch_add(bytes, std::memory_order_relaxed);
    // peak update: racy-but-monotonic CAS loop
    auto& peak = peak_[idx(tier)];
    std::uint64_t cur = used_[idx(tier)].load(std::memory_order_relaxed);
    std::uint64_t prev = peak.load(std::memory_order_relaxed);
    while (cur > prev &&
           !peak.compare_exchange_weak(prev, cur, std::memory_order_relaxed)) {
    }
  }

  void sub(Tier tier, std::uint64_t bytes) {
    used_[idx(tier)].fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t used(Tier tier) const {
    return used_[idx(tier)].load(std::memory_order_relaxed);
  }

  std::uint64_t peak(Tier tier) const {
    return peak_[idx(tier)].load(std::memory_order_relaxed);
  }

  /// Record a graceful OOM degradation: an allocation that wanted `from`
  /// but was satisfied on a lower tier (TierBuffer's spill path).
  void note_spill(Tier from) {
    spills_[idx(from)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Spills recorded with `from` as the requested tier.
  std::uint64_t spills(Tier from) const {
    return spills_[idx(from)].load(std::memory_order_relaxed);
  }

  std::uint64_t total_spills() const {
    std::uint64_t total = 0;
    for (const auto& s : spills_) total += s.load(std::memory_order_relaxed);
    return total;
  }

  /// "GPU 1.2 MiB (peak 3.4 MiB) | CPU ... | NVMe ...", with the GPU
  /// figures `gpu` when given: the engines pass their device arena's, which
  /// hold every GPU byte, where this accountant sees only what is charged
  /// to its GPU tier.
  std::string summary(std::optional<TierBytes> gpu = std::nullopt) const;

 private:
  static int idx(Tier t) { return static_cast<int>(t); }
  std::array<std::atomic<std::uint64_t>, kNumTiers> used_{};
  std::array<std::atomic<std::uint64_t>, kNumTiers> peak_{};
  std::array<std::atomic<std::uint64_t>, kNumTiers> spills_{};
};

}  // namespace zi
