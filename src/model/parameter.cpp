#include "model/parameter.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace zi {

namespace {
// Fixed global init seed; determinism across ranks and data-parallel
// degrees comes from the per-parameter stream, not from this constant.
constexpr std::uint64_t kInitSeed = 0x5EEDFACEull;

// Per-rank-thread access interceptor (Sec. 7.1.1).
thread_local ParameterAccessInterceptor g_interceptor = nullptr;
thread_local void* g_interceptor_ctx = nullptr;
}  // namespace

void set_parameter_access_interceptor(ParameterAccessInterceptor fn,
                                      void* ctx) {
  g_interceptor = fn;
  g_interceptor_ctx = ctx;
}

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Parameter::Parameter(std::string name, std::vector<std::int64_t> shape,
                     InitKind init, float init_scale)
    : name_(std::move(name)),
      shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      init_(init),
      init_scale_(init_scale),
      init_stream_(name_hash(name_)) {
  ZI_CHECK_MSG(numel_ > 0, "parameter '" << name_ << "' has zero elements");
}

float Parameter::init_value(std::int64_t index) const {
  switch (init_) {
    case InitKind::kZero:
      return 0.0f;
    case InitKind::kOne:
      return 1.0f;
    case InitKind::kNormal: {
      const Rng rng(kInitSeed, init_stream_);
      return rng.normal_at(static_cast<std::uint64_t>(index)) * init_scale_;
    }
  }
  return 0.0f;
}

void Parameter::init_values(std::int64_t first, std::span<float> out) const {
  switch (init_) {
    case InitKind::kZero:
      std::fill(out.begin(), out.end(), 0.0f);
      return;
    case InitKind::kOne:
      std::fill(out.begin(), out.end(), 1.0f);
      return;
    case InitKind::kNormal:
      Rng(kInitSeed, init_stream_)
          .normals_at(static_cast<std::uint64_t>(first), init_scale_, out);
      return;
  }
}

const half* Parameter::data() const {
  if (status_ != Status::kAvailable && g_interceptor != nullptr) {
    // Automatic external-parameter registration: gather on first touch.
    g_interceptor(g_interceptor_ctx, const_cast<Parameter*>(this));
  }
  ZI_CHECK_MSG(status_ == Status::kAvailable,
               "parameter '" << name_ << "' accessed while not gathered");
  return full_.data<half>();
}

float* Parameter::grad_data() {
  if (!grad_.defined() && g_interceptor != nullptr) {
    // Backward touch of an unregistered external parameter: the
    // interceptor gathers it with a gradient buffer.
    g_interceptor(g_interceptor_ctx, this);
  }
  ZI_CHECK_MSG(grad_.defined(),
               "parameter '" << name_ << "' has no gradient buffer");
  return grad_.data<float>();
}

}  // namespace zi
