#ifndef ARMNET_TENSOR_STORAGE_POOL_H_
#define ARMNET_TENSOR_STORAGE_POOL_H_

// No-op stand-in for the deleted tensor storage pool: every Tensor now takes
// plain heap storage (tensor/tensor.h). These empty types remain only because
// armbench/armbench.cc still names them, and they go when the benchmark
// harness next changes. Nothing else may include this header
// (tools/lint.py rule `pool-shim`).

namespace armnet {

class TensorPool {};

class ScopedTensorPool {
 public:
  explicit ScopedTensorPool(TensorPool&) {}
};

}  // namespace armnet

#endif  // ARMNET_TENSOR_STORAGE_POOL_H_
