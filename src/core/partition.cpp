#include "core/partition.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"

namespace zi {

std::vector<std::int64_t> apportion(std::int64_t total,
                                    const RankWeights& weights) {
  ZI_CHECK(total >= 0 && !weights.empty());
  const int n = static_cast<int>(weights.size());
  double sum = 0.0;
  for (double w : weights) {
    if (w > 0.0) sum += w;
  }
  std::vector<std::int64_t> parts(weights.size(), 0);
  if (sum <= 0.0) {
    // Degenerate weights: fall back to uniform apportionment.
    for (int r = 0; r < n; ++r) parts[r] = total / n + (r < total % n ? 1 : 0);
    return parts;
  }
  std::vector<double> remainder(weights.size(), 0.0);
  std::int64_t assigned = 0;
  for (int r = 0; r < n; ++r) {
    const double w = weights[r] > 0.0 ? weights[r] : 0.0;
    const double exact = static_cast<double>(total) * (w / sum);
    parts[r] = static_cast<std::int64_t>(exact);  // floor (exact >= 0)
    remainder[r] = exact - static_cast<double>(parts[r]);
    assigned += parts[r];
  }
  // Largest remainder takes the leftovers; ties break to the lower rank so
  // the split is a pure function of (total, weights).
  std::vector<int> order(weights.size());
  for (int r = 0; r < n; ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return remainder[a] > remainder[b];
  });
  for (std::int64_t i = 0; assigned < total; ++i) {
    ++parts[order[static_cast<std::size_t>(i % n)]];
    ++assigned;
  }
  return parts;
}

std::vector<std::int64_t> apportion_batches(std::int64_t total,
                                            const RankWeights& weights) {
  const int n = static_cast<int>(weights.size());
  ZI_CHECK_MSG(total >= n,
               "apportion_batches: batch too small to give every rank one");
  std::vector<std::int64_t> parts = apportion(total, weights);
  // Lift empty ranks to one unit, taking from the largest part (ties to
  // the lower rank) — a rank with zero micro-batch would fall out of the
  // collective schedule.
  for (int r = 0; r < n; ++r) {
    while (parts[r] < 1) {
      int donor = 0;
      for (int d = 1; d < n; ++d) {
        if (parts[d] > parts[donor]) donor = d;
      }
      ZI_CHECK(parts[donor] > 1);
      --parts[donor];
      ++parts[r];
    }
  }
  return parts;
}

ShardSpec make_shard_spec(std::int64_t numel, int world) {
  ZI_CHECK(numel > 0 && world > 0);
  ShardSpec spec;
  spec.numel = numel;
  spec.world = world;
  spec.shard_elems = static_cast<std::int64_t>(
      ceil_div(static_cast<std::uint64_t>(numel),
               static_cast<std::uint64_t>(world)));
  return spec;
}

ShardSpec make_shard_spec(std::int64_t numel, int world,
                          const RankWeights& weights) {
  if (weights.empty()) return make_shard_spec(numel, world);
  ZI_CHECK(static_cast<int>(weights.size()) == world);
  ZI_CHECK(numel > 0 && world > 0);
  ShardSpec spec;
  spec.numel = numel;
  spec.world = world;
  spec.chunk = apportion(numel, weights);
  spec.prefix.resize(static_cast<std::size_t>(world) + 1, 0);
  spec.shard_elems = 0;
  for (int r = 0; r < world; ++r) {
    spec.prefix[static_cast<std::size_t>(r) + 1] =
        spec.prefix[static_cast<std::size_t>(r)] +
        spec.chunk[static_cast<std::size_t>(r)];
    spec.shard_elems = std::max(spec.shard_elems,
                                spec.chunk[static_cast<std::size_t>(r)]);
  }
  ZI_CHECK(spec.prefix[static_cast<std::size_t>(world)] == numel);
  ZI_CHECK(spec.shard_elems > 0);
  return spec;
}

void init_shard_fp16(const Parameter& p, const ShardSpec& spec, int rank,
                     std::span<half> shard) {
  ZI_CHECK(static_cast<std::int64_t>(shard.size()) == spec.shard_elems);
  const auto valid = static_cast<std::size_t>(spec.valid_elems(rank));
  std::vector<float> values(valid);
  p.init_values(spec.begin(rank), values);
  floats_to_halves(values, shard.first(valid));
  // Tail padding is zero so padded gathers and reductions stay benign.
  std::fill(shard.begin() + static_cast<std::ptrdiff_t>(valid), shard.end(),
            half(0.0f));
}

void extract_shard_fp16(std::span<const half> full,
                        const ShardSpec& spec, int rank,
                        std::span<half> shard) {
  ZI_CHECK(static_cast<std::int64_t>(full.size()) >= spec.numel);
  ZI_CHECK(static_cast<std::int64_t>(shard.size()) == spec.shard_elems);
  const std::int64_t valid = spec.valid_elems(rank);
  std::copy_n(full.begin() + spec.begin(rank), valid, shard.begin());
  std::fill(shard.begin() + valid, shard.end(), half(0.0f));
}

}  // namespace zi
