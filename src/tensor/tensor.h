#ifndef ARMNET_TENSOR_TENSOR_H_
#define ARMNET_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace armnet {

// Dense float32 tensor with value semantics over shared, contiguous,
// row-major storage.
//
// Copying a Tensor is cheap (shared storage); Reshape() returns a view onto
// the same storage, and ViewSlice() a view at a nonzero element offset into
// it (the execution-plan arena packs many intermediates into one buffer this
// way). Mutating through data() is visible to all views, which the autograd
// engine exploits for in-place gradient accumulation. Ops that need an
// independent buffer call Clone().
class Tensor {
 public:
  // Default-constructed tensors are empty (rank 0, 1 element is NOT implied;
  // numel() == 0 distinguishes "no tensor yet").
  Tensor() = default;

  // Zero-filled tensor of the given shape (all dims must be concrete), on
  // fresh heap storage.
  explicit Tensor(Shape shape);

  // Storage buffers allocated by Tensor construction, FromVector and Clone
  // on the calling thread so far. Reading it before and after a region
  // counts the tensors that region allocates.
  static int64_t StorageAllocations();

  // --- Factories ---------------------------------------------------------

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(Shape shape, float value);
  // Rank-0 scalar.
  static Tensor Scalar(float value);
  static Tensor FromVector(Shape shape, std::vector<float> values);
  // I.i.d. uniform in [lo, hi).
  static Tensor Uniform(Shape shape, float lo, float hi, Rng& rng);
  // I.i.d. normal(mean, stddev).
  static Tensor Normal(Shape shape, float mean, float stddev, Rng& rng);

  // --- Introspection ------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  int64_t dim(int i) const { return shape_.dim(i); }
  int64_t numel() const { return storage_ ? shape_.numel() : 0; }
  bool defined() const { return storage_ != nullptr; }

  float* data() {
    ARMNET_DCHECK(storage_ != nullptr);
    return storage_->data() + offset_;
  }
  const float* data() const {
    ARMNET_DCHECK(storage_ != nullptr);
    return storage_->data() + offset_;
  }

  // Flat element access.
  float& operator[](int64_t i) {
    ARMNET_DCHECK(i >= 0 && i < numel());
    return data()[i];
  }
  float operator[](int64_t i) const {
    ARMNET_DCHECK(i >= 0 && i < numel());
    return data()[i];
  }

  // Multi-index access (rank must match the number of indices). Debug builds
  // bounds-check every index; negative indices count from the end.
  float& at(std::initializer_list<int64_t> indices) {
    // FlatIndex first: it checks storage liveness before we dereference.
    const int64_t flat = FlatIndex(indices);
    return data()[flat];
  }
  float at(std::initializer_list<int64_t> indices) const {
    const int64_t flat = FlatIndex(indices);
    return data()[flat];
  }

  // Convenience forms: t.at(i, j) == t.at({i, j}).
  template <typename... Index>
  float& at(Index... index) {
    return at({static_cast<int64_t>(index)...});
  }
  template <typename... Index>
  float at(Index... index) const {
    return at({static_cast<int64_t>(index)...});
  }

  // Value of a tensor that holds exactly one element (any rank).
  float item() const {
    ARMNET_CHECK_EQ(numel(), 1) << "item() on tensor of shape "
                                << shape_.ToString();
    return data()[0];
  }

  // --- Transformations ----------------------------------------------------

  // View with a new shape over the same storage; element count must match.
  // One dimension may be -1 and is inferred. Preserves this view's offset.
  Tensor Reshape(Shape shape) const;

  // View of `shape` starting `offset` elements into THIS view (offsets
  // compose). The window [offset, offset + shape.numel()) must stay inside
  // the underlying storage. Shares storage: writes are visible to all views.
  Tensor ViewSlice(int64_t offset, Shape shape) const;

  // Deep copy with independent storage.
  Tensor Clone() const;

  // Overwrites every element with `value`.
  void Fill(float value);

  // True if shapes match and all elements are within `tolerance`.
  bool AllClose(const Tensor& other, float tolerance = 1e-5f) const;

  std::string ToString(int64_t max_elements = 32) const;

 private:
  int64_t FlatIndex(std::initializer_list<int64_t> indices) const;

  std::shared_ptr<std::vector<float>> storage_;
  Shape shape_;
  // Element offset of this view into storage_ (0 for whole-buffer tensors).
  int64_t offset_ = 0;
};

}  // namespace armnet

#endif  // ARMNET_TENSOR_TENSOR_H_
