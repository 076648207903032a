#include "core/tier_buffer.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace zi {

namespace {

/// Overflow-safe range validation: throws BoundsError unless
/// [offset, offset+size) fits in `limit` bytes — `offset + size` is never
/// formed, so std::uint64_t wraparound cannot corrupt the arena.
void check_range(const char* op, Tier tier, std::uint64_t offset,
                 std::uint64_t size, std::uint64_t limit) {
  if (offset > limit || size > limit - offset) {
    std::ostringstream os;
    os << "TierBuffer: " << op << " of " << size << " bytes at offset "
       << offset << " exceeds " << tier_name(tier) << " buffer of " << limit
       << " bytes";
    throw BoundsError(os.str());
  }
}

}  // namespace

TierBuffer::TierBuffer(RankResources& res, Tier tier, std::uint64_t bytes)
    : res_(&res), tier_(tier), requested_tier_(tier), bytes_(bytes) {
  ZI_CHECK(bytes > 0);
  switch (tier_) {
    case Tier::kGpu:
      // Graceful degradation (opt-in): GPU arena exhaustion spills the
      // buffer to host memory instead of aborting the run. The bytes are
      // identical wherever they live, so trajectories stay bit-exact.
      if (res.spill_on_oom()) {
        try {
          gpu_block_ = res.gpu().allocate(bytes);
        } catch (const OutOfMemoryError& e) {
          ZI_LOG_WARN << "TierBuffer: GPU allocation failed ("
                      << e.what() << "); spilling " << bytes
                      << " bytes to CPU";
          tier_ = Tier::kCpu;
          cpu_.resize(bytes);
          res_->accountant().note_spill(Tier::kGpu);
        }
      } else {
        gpu_block_ = res.gpu().allocate(bytes);
      }
      break;
    case Tier::kCpu:
      cpu_.resize(bytes);
      break;
    case Tier::kNvme:
      // NVMe exhaustion spills *up* to CPU — the only tier with elastic
      // capacity here.
      if (res.spill_on_oom()) {
        try {
          extent_ = res.nvme().allocate(bytes);
        } catch (const OutOfMemoryError& e) {
          ZI_LOG_WARN << "TierBuffer: NVMe allocation failed ("
                      << e.what() << "); spilling " << bytes
                      << " bytes to CPU";
          tier_ = Tier::kCpu;
          cpu_.resize(bytes);
          res_->accountant().note_spill(Tier::kNvme);
        }
      } else {
        extent_ = res.nvme().allocate(bytes);
      }
      break;
  }
  res_->accountant().add(tier_, bytes_);
}

TierBuffer::~TierBuffer() {
  if (res_ != nullptr) res_->accountant().sub(tier_, bytes_);
}

std::byte* TierBuffer::data() noexcept {
  switch (tier_) {
    case Tier::kGpu: return gpu_block_.data();
    case Tier::kCpu: return cpu_.data();
    case Tier::kNvme: return nullptr;
  }
  return nullptr;
}

const std::byte* TierBuffer::data() const noexcept {
  return const_cast<TierBuffer*>(this)->data();
}

void TierBuffer::store(std::span<const std::byte> src, std::uint64_t offset) {
  store_async(src, offset, TransferClass::kLatency).wait();
}

void TierBuffer::load(std::span<std::byte> dst, std::uint64_t offset) const {
  load_async(dst, offset, TransferClass::kLatency).wait();
}

TransferHandle TierBuffer::store_async(std::span<const std::byte> src,
                                       std::uint64_t offset,
                                       TransferClass cls) {
  check_range("store", tier_, offset, src.size(), bytes_);
  if (tier_ == Tier::kNvme) {
    return res_->mover().spill_nvme(extent_, src, offset, cls);
  }
  res_->mover().spill_copy(spill_route(tier_), data() + offset, src);
  return TransferHandle();  // trivially complete
}

TransferHandle TierBuffer::load_async(std::span<std::byte> dst,
                                      std::uint64_t offset,
                                      TransferClass cls) const {
  check_range("load", tier_, offset, dst.size(), bytes_);
  if (tier_ == Tier::kNvme) {
    return res_->mover().fetch_nvme(extent_, dst, offset, cls);
  }
  res_->mover().fetch_copy(fetch_route(tier_), dst, data() + offset);
  return TransferHandle();
}

TierSlice::TierSlice(TierBuffer& buf, std::uint64_t offset,
                     std::uint64_t bytes)
    : buf_(&buf), offset_(offset), bytes_(bytes) {
  check_range("slice", buf.tier(), offset, bytes, buf.size());
}

void TierSlice::store(std::span<const std::byte> src, std::uint64_t offset) {
  check_range("store", buf_->tier(), offset, src.size(), bytes_);
  buf_->store(src, offset_ + offset);
}

void TierSlice::load(std::span<std::byte> dst, std::uint64_t offset) const {
  check_range("load", buf_->tier(), offset, dst.size(), bytes_);
  buf_->load(dst, offset_ + offset);
}

}  // namespace zi
