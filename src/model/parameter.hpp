// Parameter — one learnable tensor with an explicit availability lifecycle.
//
// In ZeRO-3/Infinity a parameter's persistent form is a partitioned fp16
// shard that may live on GPU, CPU, or NVMe; the full fp16 tensor used for
// compute exists only between a gather and a release (Sec. 5.1.1). The
// Parameter object carries:
//   * immutable identity (name, shape, deterministic init spec), and
//   * the transient compute-time state (`full`, `grad`, `status`) that the
//     parameter coordinator populates and tears down around each use.
//
// Initialization is a pure function of (name-derived stream, element index)
// so any rank can materialize exactly its slice without ever building the
// full tensor — the mechanism behind the partitioned-init context (Sec. 7.2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "tensor/tensor.hpp"

namespace zi {

class Module;
class Parameter;

/// Access interceptor for Sec. 7.1.1's automatic external-parameter
/// registration: when compute touches a parameter that is not gathered,
/// the installed interceptor (one per rank thread, owned by that rank's
/// ParamCoordinator) gathers it on the fly and registers it as an external
/// parameter of the currently executing module, so future iterations
/// prefetch it like any other.
using ParameterAccessInterceptor = void (*)(void* ctx, Parameter* p);
void set_parameter_access_interceptor(ParameterAccessInterceptor fn,
                                      void* ctx);

enum class InitKind {
  kZero,    ///< biases, beta
  kOne,     ///< layernorm gamma
  kNormal,  ///< weights: N(0, scale^2), GPT-2 style
};

class Parameter {
 public:
  enum class Status { kNotAvailable, kInflight, kAvailable };

  Parameter(std::string name, std::vector<std::int64_t> shape, InitKind init,
            float init_scale);

  Parameter(const Parameter&) = delete;
  Parameter& operator=(const Parameter&) = delete;

  const std::string& name() const noexcept { return name_; }
  const std::vector<std::int64_t>& shape() const noexcept { return shape_; }
  std::int64_t numel() const noexcept { return numel_; }
  InitKind init_kind() const noexcept { return init_; }

  /// Global id assigned when the root module finalizes its tree (execution-
  /// independent, stable across ranks).
  int id() const noexcept { return id_; }
  void set_id(int id) noexcept { id_ = id; }

  Module* owner() const noexcept { return owner_; }
  void set_owner(Module* m) noexcept { owner_ = m; }

  Status status() const noexcept { return status_; }
  void set_status(Status s) noexcept { status_ = s; }

  /// The deterministic initial value of element `index` (fp32, before fp16
  /// storage rounding). Pure function — identical on every rank.
  float init_value(std::int64_t index) const;
  /// out[j] = init_value(first + j), drawing the whole span in one call.
  void init_values(std::int64_t first, std::span<float> out) const;

  /// Full fp16 tensor for compute; the kernels widen it as they read it.
  /// Populated by the coordinator (or a LocalParamStore); accessing it
  /// while kNotAvailable is a hard error — that is the bug class the
  /// availability state machine exists to catch.
  const half* data() const;

  /// fp32 gradient accumulation buffer, valid during backward.
  float* grad_data();

  /// Direct access to the underlying tensors for the coordinator.
  Tensor& full_tensor() noexcept { return full_; }
  Tensor& grad_tensor() noexcept { return grad_; }

  bool has_grad() const noexcept { return grad_.defined(); }

 private:
  std::string name_;
  std::vector<std::int64_t> shape_;
  std::int64_t numel_;
  InitKind init_;
  float init_scale_;
  std::uint64_t init_stream_;  // derived from name, rank-independent
  int id_ = -1;
  Module* owner_ = nullptr;
  Status status_ = Status::kNotAvailable;
  Tensor full_;
  Tensor grad_;
};

/// FNV-1a hash of a string — used to derive per-parameter init streams.
std::uint64_t name_hash(const std::string& s);

}  // namespace zi
