// Sequential container + parameter flattening (the genome codec).
//
// Cellular training ships whole networks between grid cells; a network's
// "genome" is the flat float vector of all parameters in layer order.
// flatten_parameters / load_parameters are the exact codec the comm-manager
// uses to serialize a center individual into a neighbor-exchange message.
// A network of Params::kBorrowed layers instead runs on such a flat vector
// where it lies: bind() points it at one, say a neighbor genome's.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace cellgan::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Takes ownership. Returns *this for chaining.
  Sequential& add(LayerPtr layer);

  using Layer::backward;
  using Layer::forward;
  tensor::Tensor forward(const tensor::Tensor& input, Cache cache) override;
  /// Layer i computes its input gradient when the caller wants the input
  /// gradient, or when i > 0 and parameter gradients are wanted (layer i - 1
  /// needs it).
  tensor::Tensor backward(const tensor::Tensor& grad_output, Grads what) override;

  std::vector<tensor::Tensor*> parameters() override;
  std::vector<tensor::Tensor*> gradients() override;
  void zero_grad() override;

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Total number of scalar parameters.
  std::size_t parameter_count();

  /// Copy all parameters into one flat vector (layer order, row-major).
  std::vector<float> flatten_parameters();

  /// Inverse of flatten_parameters; size must match parameter_count().
  void load_parameters(std::span<const float> flat);

  /// Bind every layer, in order, to its part of `flat` (flatten_parameters
  /// layout); the layers must take all of it. Each Linear must be borrowed.
  std::size_t bind(std::span<const float> flat) override;

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace cellgan::nn
