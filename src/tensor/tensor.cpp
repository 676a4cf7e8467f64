#include "tensor/tensor.hpp"

#include <algorithm>

namespace cellgan::tensor {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  CG_EXPECT(data_.size() == rows_ * cols_);
}

Tensor Tensor::row(std::initializer_list<float> values) {
  return Tensor(1, values.size(), std::vector<float>(values));
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, float value) {
  Tensor t(rows, cols);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols, common::Rng& rng, float stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(std::size_t rows, std::size_t cols, common::Rng& rng,
                            float lo, float hi) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::reshaped(std::size_t new_rows, std::size_t new_cols) const {
  CG_EXPECT(new_rows * new_cols == data_.size());
  return Tensor(new_rows, new_cols, data_);
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
  CG_EXPECT(begin <= end && end <= rows_);
  Tensor t(end - begin, cols_);
  std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
            t.data_.begin());
  return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

}  // namespace cellgan::tensor
