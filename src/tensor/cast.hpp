// Tensor precision conversion between fp16 storage and fp32 compute. Bulk
// span conversions are halves_to_floats / floats_to_halves (common/half.hpp).
#pragma once

#include "common/half.hpp"
#include "tensor/tensor.hpp"

namespace zi {

/// Tensor-level conversion into a new owned tensor of `dtype`.
Tensor cast(const Tensor& src, DType dtype);

}  // namespace zi
