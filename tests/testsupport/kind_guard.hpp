// Scoped tensor-kernel selection for tests that pin a kernel kind.
#pragma once

#include "tensor/kernels.hpp"

namespace cellgan::testsupport {

/// Selects `kind` process-wide and restores the surrounding kind on exit, so
/// test order never leaks a selection.
class KindGuard {
 public:
  explicit KindGuard(tensor::KernelKind kind) : previous_(tensor::active_kernel_kind()) {
    tensor::set_kernel_kind(kind);
  }
  ~KindGuard() { tensor::set_kernel_kind(previous_); }

  KindGuard(const KindGuard&) = delete;
  KindGuard& operator=(const KindGuard&) = delete;

 private:
  tensor::KernelKind previous_;
};

/// Both kernel kinds, for tests that loop their body over each.
inline constexpr tensor::KernelKind kAllKernelKinds[] = {tensor::KernelKind::kScalar,
                                                         tensor::KernelKind::kSimd};

}  // namespace cellgan::testsupport
