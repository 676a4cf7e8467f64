// Layer abstraction: explicit forward / backward with cached activations.
//
// No tape autograd — the paper's networks are straight-line MLPs, so each
// layer caches what its backward pass needs (input or output) and backward()
// must be called after the matching forward(). Parameters and their gradients
// are exposed as tensor pointers so Adam and the genome codec
// (flatten/unflatten) can walk them uniformly.
#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace cellgan::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute outputs for a batch (rows = samples). May cache for backward.
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Given dL/d(output), accumulate parameter gradients and return dL/d(input).
  /// Requires a preceding forward() on the same batch.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<tensor::Tensor*> parameters() { return {}; }
  /// Gradients, 1:1 with parameters().
  virtual std::vector<tensor::Tensor*> gradients() { return {}; }

  /// Set all gradients to zero.
  virtual void zero_grad() {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cellgan::nn
