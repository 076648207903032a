// LocalParamStore — plain (non-partitioned) parameter storage.
//
// This is what classic data parallelism does: every rank holds the full
// fp16 parameters. It backs the DDP, Megatron and 3D engines and lets model
// modules be unit-tested without the ZeRO machinery.
//
// The fp16 tensor is each parameter's compute tensor, exactly as a gathered
// ZeRO-3 parameter is: the kernels widen it where they read it, and the
// optimizer writes the updated fp16 values straight into it, so DDP and
// ZeRO runs see identical parameter rounding.
#pragma once

#include <vector>

#include "model/module.hpp"

namespace zi {

class LocalParamStore {
 public:
  /// Materialize fp16 compute tensors and fp32 grad tensors for every
  /// parameter in the tree; marks all parameters kAvailable.
  explicit LocalParamStore(Module& root);

  void zero_grads();

  const std::vector<Parameter*>& params() const noexcept { return params_; }

  /// Persistent fp16 weights of `p` (its compute tensor).
  Tensor& fp16(Parameter* p);

  /// Total parameter elements.
  std::int64_t total_numel() const noexcept { return total_numel_; }

 private:
  std::vector<Parameter*> params_;
  std::int64_t total_numel_ = 0;
};

}  // namespace zi
