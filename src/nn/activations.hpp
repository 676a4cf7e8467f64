// The parameter-free tanh layer, the paper's only activation (Table I).
#pragma once

#include "nn/module.hpp"

namespace cellgan::nn {

class Tanh final : public Layer {
 public:
  using Layer::backward;
  using Layer::forward;
  tensor::Tensor forward(const tensor::Tensor& input, Cache cache) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output, Grads what) override;

 private:
  tensor::Tensor cached_output_;
  bool cached_ = false;  // cached_output_ is the last forward's output
};

}  // namespace cellgan::nn
