// Neighborhood generator mixtures.
//
// Lipizzaner's final product is not a single generator but the sub-population
// of a neighborhood combined with mixture weights: samples are drawn from
// generator i with probability w_i. Weights evolve by Gaussian mutation
// (Table I: mixture mutation scale 0.01) under (1+1)-ES selection on the
// mixture's quality.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::evolve {

class MixtureWeights {
 public:
  /// Uniform weights over `size` generators.
  explicit MixtureWeights(std::size_t size);

  std::size_t size() const { return weights_.size(); }
  double weight(std::size_t i) const { return weights_[i]; }
  const std::vector<double>& weights() const { return weights_; }

  /// Replace weights (renormalized; non-negative required).
  void set_weights(std::vector<double> w);

  /// Install already-normalized weights verbatim (checkpoint restore):
  /// renormalizing an (approximately) unit-sum vector would perturb its
  /// low-order bits and break bit-exact resume. Requires non-negative
  /// weights summing to ~1.
  void restore_weights(std::vector<double> w);

  /// Gaussian-perturb every weight with stddev `scale`, clamp at zero,
  /// renormalize. Returns the mutated copy (callers keep the original for
  /// (1+1)-ES selection).
  MixtureWeights mutated(double scale, common::Rng& rng) const;

  /// Sample a generator index from the weight distribution.
  std::size_t sample_index(common::Rng& rng) const;

 private:
  void normalize();
  std::vector<double> weights_;
};

/// The stochastic half of a mixture draw: which generator produces each of
/// the `count` output rows, and the latent inputs already grouped per
/// generator. Splitting this from the forward passes lets a serving batcher
/// plan many requests independently (each on its own rng stream) and then
/// run ONE forward per generator over the concatenated latents — the
/// per-request outputs stay bit-identical to a solo draw because every GEMM
/// kernel accumulates each output row in a partition-independent order.
struct MixtureDraw {
  std::size_t count = 0;
  std::vector<std::vector<std::size_t>> rows_of;  ///< per generator: output rows
  std::vector<tensor::Tensor> latents;            ///< per generator (empty if unused)
  /// Per generator, the class label of each row; conditional draws only.
  std::vector<std::vector<std::uint32_t>> labels_of;
};

/// Consume `rng` exactly as sample_mixture does (count generator-index draws,
/// then, per non-empty generator in index order, the conditional label draws
/// — when label_classes > 0 — followed by that generator's randn block) and
/// return the plan. Conditional plans carry latent_dim + label_classes wide
/// latents with the one-hot label appended, ready for a conditional
/// generator's forward.
MixtureDraw plan_mixture_draw(const MixtureWeights& weights,
                              std::size_t generators, std::size_t latent_dim,
                              std::size_t count, common::Rng& rng,
                              std::size_t label_classes = 0);

/// One mixture member's generator. `network` runs it; when `params` is not
/// empty, `network` is a borrowing network (nn::Sequential::bind) that the
/// sampler binds to these flat generator parameters first, so every member
/// held as parameters can share one network and no weight is copied.
struct MixtureMember {
  nn::Sequential* network = nullptr;
  std::span<const float> params;
};

/// Where the rows of a mixture sample land.
enum class MixtureRows {
  kDrawn,     ///< row i is the i-th draw
  kByMember,  ///< grouped by member in member order, each group in draw order
};

struct MixtureSample {
  tensor::Tensor images;               ///< count x image_dim
  std::vector<std::uint32_t> labels;   ///< row-aligned; conditional draws only
};

/// Draw `count` samples from the weighted ensemble: each row comes from the
/// member selected by the mixture distribution, fed with a fresh latent
/// vector z ~ N(0,1)^latent_dim (plus a uniform one-hot class label when
/// label_classes > 0 — class-conditional generators). Each member that
/// draws rows runs one forward.
MixtureSample sample_mixture(const MixtureWeights& weights,
                             std::span<const MixtureMember> members,
                             std::size_t latent_dim, std::size_t count,
                             common::Rng& rng, std::size_t label_classes = 0,
                             MixtureRows rows = MixtureRows::kDrawn);

}  // namespace cellgan::evolve
