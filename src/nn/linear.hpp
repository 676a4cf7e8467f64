// Fully-connected layer: y = x W + b, W is (in x out), b is (1 x out).
#pragma once

#include "nn/module.hpp"

namespace cellgan::nn {

class Linear final : public Layer {
 public:
  /// Owned weights start zero; call an initializer (nn/init.hpp) before
  /// training. A borrowed layer allocates nothing and reads what bind()
  /// points it at: W row-major, then b.
  Linear(std::size_t in_features, std::size_t out_features,
         Params params = Params::kOwned);

  using Layer::backward;
  using Layer::forward;
  tensor::Tensor forward(const tensor::Tensor& input, Cache cache) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output, Grads what) override;

  std::vector<tensor::Tensor*> parameters() override;
  std::vector<tensor::Tensor*> gradients() override;
  void zero_grad() override;
  std::size_t bind(std::span<const float> flat) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  tensor::Tensor& weight() { return weight_; }
  tensor::Tensor& bias() { return bias_; }

 private:
  bool owned() const { return params_ == Params::kOwned; }
  std::span<const float> weight_values() const;
  std::span<const float> bias_values() const;

  std::size_t in_;
  std::size_t out_;
  Params params_;
  tensor::Tensor weight_;       // in x out; empty when borrowed
  tensor::Tensor bias_;         // 1 x out; empty when borrowed
  tensor::Tensor grad_weight_;  // in x out; empty when borrowed
  tensor::Tensor grad_bias_;    // 1 x out; empty when borrowed
  std::span<const float> bound_;  // W then b, when borrowed
  tensor::Tensor cached_input_;   // batch x in; owned layers only
  std::size_t cached_rows_ = 0;   // rows of the last caching forward
  bool cached_ = false;           // the last forward kept its cache
};

}  // namespace cellgan::nn
