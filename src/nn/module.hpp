// Layer abstraction: explicit forward / backward with cached activations.
//
// No tape autograd — the paper's networks are straight-line MLPs, so each
// layer caches what its backward pass needs (input or output) and backward()
// must be called after the matching forward(). Parameters and their gradients
// are exposed as tensor pointers so Adam and the genome codec
// (flatten/unflatten) can walk them uniformly.
//
// A network can also run on parameters it does not own: a layer built with
// Params::kBorrowed has no weight or gradient storage and reads the flat span
// that bind() points it at (the layout flatten_parameters writes, which is a
// genome's). It runs forwards and input-only backwards; asking it for its
// parameters, or for parameter gradients, is a contract violation.
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
#include <span>
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

/// Whether a layer owns its parameters or reads a span bound to it.
enum class Params { kOwned, kBorrowed };

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

  /// Read this layer's parameters from the front of `flat` (in parameters()
  /// order) from now on; returns how many floats they take. Only a
  /// Params::kBorrowed layer binds; a parameter-free layer takes none. The
  /// span must outlive every later pass.
  virtual std::size_t bind(std::span<const float> /*flat*/) { return 0; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cellgan::nn
