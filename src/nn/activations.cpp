#include "nn/activations.hpp"

#include "tensor/ops.hpp"

namespace cellgan::nn {

tensor::Tensor Tanh::forward(const tensor::Tensor& input, Cache cache) {
  cached_ = cache == Cache::kKeep;
  if (!cached_) return tensor::tanh_forward(input);
  cached_output_ = tensor::tanh_forward(input);
  return cached_output_;
}

tensor::Tensor Tanh::backward(const tensor::Tensor& grad_output, Grads what) {
  CG_EXPECT(cached_);
  if (!wants_input(what)) return {};
  return tensor::tanh_backward(grad_output, cached_output_);
}

}  // namespace cellgan::nn
