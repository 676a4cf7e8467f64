// Dense row-major float32 matrix.
//
// The paper's networks are MLPs, so a 2-D tensor (batch x features, plus
// 1 x n vectors for biases) covers the whole workload. Data lives in one
// contiguous std::vector<float>; views are std::span. All shape mismatches
// are contract violations (CG_EXPECT), not silent broadcasts.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace cellgan::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// rows x cols, zero-initialized.
  Tensor(std::size_t rows, std::size_t cols);

  /// rows x cols with explicit data (size must equal rows*cols).
  Tensor(std::size_t rows, std::size_t cols, std::vector<float> data);

  /// 1 x n row vector from an initializer list (test convenience).
  static Tensor row(std::initializer_list<float> values);

  static Tensor full(std::size_t rows, std::size_t cols, float value);
  /// N(0, stddev^2) entries.
  static Tensor randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                      float stddev = 1.0f);
  /// U(lo, hi) entries.
  static Tensor rand_uniform(std::size_t rows, std::size_t cols, common::Rng& rng,
                             float lo, float hi);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    CG_EXPECT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    CG_EXPECT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  std::span<float> row_span(std::size_t r) {
    CG_EXPECT(r < rows_);
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  std::span<const float> row_span(std::size_t r) const {
    CG_EXPECT(r < rows_);
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }

  /// Reinterpret as new_rows x new_cols (element count must match).
  Tensor reshaped(std::size_t new_rows, std::size_t new_cols) const;

  /// Copy of rows [begin, end).
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

  void fill(float value);

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace cellgan::tensor
