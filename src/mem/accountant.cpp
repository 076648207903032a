#include "mem/accountant.hpp"

#include <sstream>

#include "common/units.hpp"

namespace zi {

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kGpu: return "GPU";
    case Tier::kCpu: return "CPU";
    case Tier::kNvme: return "NVMe";
  }
  return "?";
}

std::string MemoryAccountant::summary(std::optional<TierBytes> gpu) const {
  std::ostringstream os;
  for (int i = 0; i < kNumTiers; ++i) {
    const Tier t = static_cast<Tier>(i);
    const TierBytes b =
        gpu && t == Tier::kGpu ? *gpu : TierBytes{used(t), peak(t)};
    if (i > 0) os << " | ";
    os << tier_name(t) << " " << format_bytes(b.used) << " (peak "
       << format_bytes(b.peak) << ")";
  }
  return os.str();
}

}  // namespace zi
