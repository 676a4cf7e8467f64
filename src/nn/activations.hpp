// The parameter-free tanh layer, the paper's only activation (Table I).
#pragma once

#include "nn/module.hpp"

namespace cellgan::nn {

class Tanh final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;

 private:
  tensor::Tensor cached_output_;
};

}  // namespace cellgan::nn
