// A restored, ready-to-sample generative model reassembled from a grid
// Checkpoint — the serving-side counterpart of Session::sample_best.
//
// The paper's system returns "the sub-population with the highest quality"
// as its product (Section II.B): a neighborhood of generators plus evolved
// mixture weights. CheckpointMixture rebuilds exactly that from a saved
// Checkpoint (center genomes + mixture weights), so a serving process can
// load a model file and draw samples without any live trainer. Sampling is
// seed-addressed: sample(count, seed) is a pure function of (checkpoint,
// cell, count, seed), which is what makes serve-path responses verifiable
// bit-for-bit against a direct Session::sample_best on the same checkpoint.
//
// The plan()/forward() split exists for micro-batching servers: each
// request's stochastic half (generator assignment + latents) is planned on
// its own rng stream, many plans are concatenated per generator, and one
// forward pass serves them all. Per-request outputs are bit-identical to a
// solo sample() because every tensor kernel accumulates each output row in
// a partition-independent order (pinned by tests/tensor/kernel_parity).
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "evolve/grid.hpp"
#include "evolve/mixture.hpp"
#include "nn/sequential.hpp"

namespace cellgan::core {

class CheckpointMixture {
 public:
  /// Rebuild `cell`'s neighborhood mixture from `snapshot`; cell -1 picks the
  /// checkpoint's best cell (argmin center generator fitness). CG_EXPECTs a
  /// well-formed checkpoint (centers match the config's grid).
  explicit CheckpointMixture(const Checkpoint& snapshot, int cell = -1);

  /// argmin generator fitness over the checkpoint's centers.
  static int best_cell_of(const Checkpoint& snapshot);

  int cell() const { return cell_; }
  const std::vector<int>& members() const { return members_; }
  const evolve::MixtureWeights& weights() const { return weights_; }
  const TrainingConfig& config() const { return config_; }
  std::size_t generators() const { return params_.size(); }
  std::size_t latent_dim() const { return config_.arch.latent_dim; }
  std::size_t image_dim() const { return config_.arch.image_dim; }

  /// Draw `count` samples on a fresh Rng(seed) stream. Deterministic in
  /// (checkpoint, cell, count, seed) for a fixed tensor-kernel kind. NOT
  /// thread-safe (every member runs on one borrowing network) — callers
  /// serialize, e.g. on the serve batcher's single worker thread.
  tensor::Tensor sample(std::size_t count, std::uint64_t seed);

  /// The stochastic half of one request's draw, on its own Rng(seed) stream.
  /// Const and thread-safe: touches no network state.
  evolve::MixtureDraw plan(std::size_t count, std::uint64_t seed) const;

  /// Forward `latents` through member generator `g` (index into members()).
  /// NOT thread-safe; see sample().
  tensor::Tensor forward(std::size_t g, const tensor::Tensor& latents);

 private:
  TrainingConfig config_;
  int cell_ = 0;
  std::vector<int> members_;
  /// Each member's generator parameters, center first.
  std::vector<std::vector<float>> params_;
  nn::Sequential generator_;  ///< borrowing; bound to a member per forward
  evolve::MixtureWeights weights_;
};

}  // namespace cellgan::core
