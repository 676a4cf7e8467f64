// Fully-connected layer: y = x W + b, W is (in x out), b is (1 x out).
#pragma once

#include "nn/module.hpp"

namespace cellgan::nn {

class Linear final : public Layer {
 public:
  /// Weights start zero; call an initializer (nn/init.hpp) before training.
  Linear(std::size_t in_features, std::size_t out_features);

  using Layer::backward;
  using Layer::forward;
  tensor::Tensor forward(const tensor::Tensor& input, Cache cache) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output, Grads what) override;

  std::vector<tensor::Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<tensor::Tensor*> gradients() override { return {&grad_weight_, &grad_bias_}; }
  void zero_grad() override;

  std::size_t in_features() const { return weight_.rows(); }
  std::size_t out_features() const { return weight_.cols(); }

  tensor::Tensor& weight() { return weight_; }
  tensor::Tensor& bias() { return bias_; }

 private:
  tensor::Tensor weight_;       // in x out
  tensor::Tensor bias_;         // 1 x out
  tensor::Tensor grad_weight_;  // in x out
  tensor::Tensor grad_bias_;    // 1 x out
  tensor::Tensor cached_input_; // batch x in
  bool cached_ = false;         // cached_input_ is the last forward's input
};

}  // namespace cellgan::nn
