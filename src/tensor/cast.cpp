#include "tensor/cast.hpp"

namespace zi {

Tensor cast(const Tensor& src, DType dtype) {
  Tensor out(src.shape(), dtype);
  if (src.dtype() == dtype) {
    out.copy_from(src);
  } else if (dtype == DType::kF32) {
    halves_to_floats(src.span<half>(), out.span<float>());
  } else {
    floats_to_halves(src.span<float>(), out.span<half>());
  }
  return out;
}

}  // namespace zi
