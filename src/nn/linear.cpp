#include "nn/linear.hpp"

#include "tensor/ops.hpp"

namespace cellgan::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Params params)
    : in_(in_features), out_(out_features), params_(params) {
  if (!owned()) return;
  weight_ = tensor::Tensor(in_, out_);
  bias_ = tensor::Tensor(1, out_);
  grad_weight_ = tensor::Tensor(in_, out_);
  grad_bias_ = tensor::Tensor(1, out_);
}

std::span<const float> Linear::weight_values() const {
  if (owned()) return weight_.data();
  CG_EXPECT(!bound_.empty());
  return bound_.first(in_ * out_);
}

std::span<const float> Linear::bias_values() const {
  if (owned()) return bias_.data();
  CG_EXPECT(!bound_.empty());
  return bound_.subspan(in_ * out_);
}

tensor::Tensor Linear::forward(const tensor::Tensor& input, Cache cache) {
  CG_EXPECT(input.cols() == in_);
  cached_ = cache == Cache::kKeep;
  cached_rows_ = input.rows();
  // Only parameter gradients read the input, and a borrowed layer has none.
  if (cached_ && owned()) cached_input_ = input;
  tensor::Tensor out = tensor::matmul(input, weight_values(), out_);
  tensor::add_row_bias(out, bias_values());
  return out;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output, Grads what) {
  CG_EXPECT(cached_);
  CG_EXPECT(grad_output.rows() == cached_rows_);
  CG_EXPECT(grad_output.cols() == out_);
  // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T
  if (wants_params(what)) {
    CG_EXPECT(owned());
    tensor::axpy(1.0f, tensor::matmul_tn(cached_input_, grad_output), grad_weight_);
    tensor::axpy(1.0f, tensor::col_sum(grad_output), grad_bias_);
  }
  if (!wants_input(what)) return {};
  return tensor::matmul_nt(grad_output, weight_values(), in_);
}

std::vector<tensor::Tensor*> Linear::parameters() {
  CG_EXPECT(owned());
  return {&weight_, &bias_};
}

std::vector<tensor::Tensor*> Linear::gradients() {
  CG_EXPECT(owned());
  return {&grad_weight_, &grad_bias_};
}

void Linear::zero_grad() {
  grad_weight_.fill(0.0f);
  grad_bias_.fill(0.0f);
}

std::size_t Linear::bind(std::span<const float> flat) {
  CG_EXPECT(!owned());
  const std::size_t count = in_ * out_ + out_;
  CG_EXPECT(flat.size() >= count);
  bound_ = flat.first(count);
  return count;
}

}  // namespace cellgan::nn
