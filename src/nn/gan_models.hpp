// Factories for the paper's exact network topologies (Table I) plus
// scaled-down variants used by tests and wall-clock benchmarks.
//
// Table I:  MLP, 64 input neurons, 2 hidden layers of 256, 784 outputs,
// tanh activations. The generator maps latent (64) -> image (784, tanh in
// [-1,1]); the discriminator mirrors it, 784 -> 256 -> 256 -> 1, emitting a
// raw logit (the loss is BCE-with-logits for numerical stability).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "nn/sequential.hpp"

namespace cellgan::nn {

/// Network shape descriptor shared by generator/discriminator factories.
struct GanArch {
  std::size_t latent_dim = 64;
  std::size_t hidden_dim = 256;
  std::size_t hidden_layers = 2;
  std::size_t image_dim = 784;  // 28*28

  /// The paper's configuration (Table I).
  static GanArch paper();
  /// Tiny nets for fast unit/integration tests (latent 8, hidden 16, image 64).
  static GanArch tiny();

  std::size_t generator_parameter_count() const;
  std::size_t discriminator_parameter_count() const;

  friend bool operator==(const GanArch&, const GanArch&) = default;
};

/// latent (+ label_dims one-hot columns when conditional) -> hidden^k (tanh)
/// -> image (tanh).
Sequential make_generator(const GanArch& arch, common::Rng& rng,
                          std::size_t label_dims = 0);

/// image (+ label_dims one-hot columns when conditional) -> hidden^k (tanh)
/// -> 1 logit.
Sequential make_discriminator(const GanArch& arch, common::Rng& rng,
                              std::size_t label_dims = 0);

/// The same two topologies with Params::kBorrowed layers: no parameter
/// storage, no draws; bind() each to a genome's flat parameters of that side.
Sequential borrowing_generator(const GanArch& arch, std::size_t label_dims = 0);
Sequential borrowing_discriminator(const GanArch& arch, std::size_t label_dims = 0);

}  // namespace cellgan::nn
