#include "nn/linear.hpp"

#include "tensor/ops.hpp"

namespace cellgan::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : weight_(in_features, out_features),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {}

tensor::Tensor Linear::forward(const tensor::Tensor& input, Cache cache) {
  CG_EXPECT(input.cols() == weight_.rows());
  cached_ = cache == Cache::kKeep;
  if (cached_) cached_input_ = input;
  tensor::Tensor out = tensor::matmul(input, weight_);
  tensor::add_row_bias(out, bias_);
  return out;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output, Grads what) {
  CG_EXPECT(cached_);
  CG_EXPECT(grad_output.rows() == cached_input_.rows());
  CG_EXPECT(grad_output.cols() == weight_.cols());
  // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T
  if (wants_params(what)) {
    tensor::axpy(1.0f, tensor::matmul_tn(cached_input_, grad_output), grad_weight_);
    tensor::axpy(1.0f, tensor::col_sum(grad_output), grad_bias_);
  }
  if (!wants_input(what)) return {};
  return tensor::matmul_nt(grad_output, weight_);
}

void Linear::zero_grad() {
  grad_weight_.fill(0.0f);
  grad_bias_.fill(0.0f);
}

}  // namespace cellgan::nn
