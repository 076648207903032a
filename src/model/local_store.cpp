#include "model/local_store.hpp"

#include <algorithm>

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
    half* hp = h.data<half>();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      hp[i] = half(p->init_value(i));
    }
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
