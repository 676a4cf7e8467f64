// Layer abstraction: explicit forward / backward with cached activations.
//
// No tape autograd — the paper's networks are straight-line MLPs, so each
// layer caches what its backward pass needs (input or output) and backward()
// must be called after the matching forward(). Parameters and their gradients
// are exposed as tensor pointers so Adam and the genome codec
// (flatten/unflatten) can walk them uniformly.
//
// A step computes only what it consumes:
//  * backward computes what it is asked for: parameter gradients, the input
//    gradient, or both. Each part has the bits a full pass gives it, and a
//    pass that skips the input gradient returns an empty tensor.
//  * a forward that no backward follows (evaluation, sampling, the fake batch
//    of a discriminator step) keeps no cache. A backward after such a forward
//    is a contract violation, so it cannot read the cache of an older batch.
#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace cellgan::nn {

/// What a backward pass computes.
enum class Grads {
  kParams,  ///< accumulate parameter gradients; no input gradient
  kInput,   ///< return dL/d(input); parameter gradients untouched
  kAll,     ///< both
};

inline bool wants_params(Grads what) { return what != Grads::kInput; }
inline bool wants_input(Grads what) { return what != Grads::kParams; }

/// Whether a forward keeps what the following backward needs.
enum class Cache { kKeep, kNone };

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute outputs for a batch (rows = samples), caching for backward.
  tensor::Tensor forward(const tensor::Tensor& input) {
    return forward(input, Cache::kKeep);
  }
  /// With Cache::kNone the layer copies nothing and no backward may follow.
  virtual tensor::Tensor forward(const tensor::Tensor& input, Cache cache) = 0;

  /// Given dL/d(output), accumulate parameter gradients and return dL/d(input).
  /// Requires a preceding caching forward() on the same batch.
  tensor::Tensor backward(const tensor::Tensor& grad_output) {
    return backward(grad_output, Grads::kAll);
  }
  /// The part of backward(grad_output) that `what` selects; an empty tensor
  /// when the input gradient is not wanted.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output, Grads what) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<tensor::Tensor*> parameters() { return {}; }
  /// Gradients, 1:1 with parameters().
  virtual std::vector<tensor::Tensor*> gradients() { return {}; }

  /// Set all gradients to zero.
  virtual void zero_grad() {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cellgan::nn
