#include "model/local_store.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"

namespace zi {

LocalParamStore::LocalParamStore(Module& root) {
  params_ = root.all_parameters();
  for (Parameter* p : params_) {
    total_numel_ += p->numel();
    // fp16 storage holds the rounded initial values — the same rounding a
    // partitioned shard would store.
    Tensor h(p->shape(), DType::kF16);
    std::vector<float> values(static_cast<std::size_t>(p->numel()));
    p->init_values(0, values);
    floats_to_halves(values, h.span<half>());
    p->full_tensor() = std::move(h);
    p->grad_tensor() = Tensor(p->shape(), DType::kF32);
    p->set_status(Parameter::Status::kAvailable);
  }
}

void LocalParamStore::zero_grads() {
  for (Parameter* p : params_) p->grad_tensor().zero();
}

Tensor& LocalParamStore::fp16(Parameter* p) {
  ZI_CHECK_MSG(std::find(params_.begin(), params_.end(), p) != params_.end(),
               "unknown parameter " << p->name());
  return p->full_tensor();
}

}  // namespace zi
