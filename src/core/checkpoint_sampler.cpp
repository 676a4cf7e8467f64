#include "core/checkpoint_sampler.hpp"

#include "common/expect.hpp"
#include "nn/gan_models.hpp"

namespace cellgan::core {

int CheckpointMixture::best_cell_of(const Checkpoint& snapshot) {
  CG_EXPECT(!snapshot.centers.empty());
  int best = 0;
  for (std::size_t i = 1; i < snapshot.centers.size(); ++i) {
    if (snapshot.centers[i].g_fitness <
        snapshot.centers[static_cast<std::size_t>(best)].g_fitness) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

CheckpointMixture::CheckpointMixture(const Checkpoint& snapshot, int cell)
    : config_(snapshot.config),
      cell_(cell < 0 ? best_cell_of(snapshot) : cell),
      generator_(nn::borrowing_generator(config_.arch, config_.conditional_classes())),
      weights_(1) {
  CG_EXPECT(snapshot.centers.size() == config_.grid_cells());
  CG_EXPECT(cell_ >= 0 && static_cast<std::uint32_t>(cell_) < config_.grid_cells());

  const evolve::Grid grid(static_cast<int>(config_.grid_rows),
                          static_cast<int>(config_.grid_cols));
  members_ = grid.neighborhood_of(cell_);

  params_.reserve(members_.size());
  for (const int member : members_) {
    params_.push_back(snapshot.centers[static_cast<std::size_t>(member)].generator_params);
  }

  weights_ = evolve::MixtureWeights(members_.size());
  const auto& evolved = snapshot.mixtures[static_cast<std::size_t>(cell_)];
  if (evolved.size() == members_.size()) weights_.set_weights(evolved);
}

evolve::MixtureDraw CheckpointMixture::plan(std::size_t count, std::uint64_t seed) const {
  common::Rng rng(seed);
  return evolve::plan_mixture_draw(weights_, params_.size(), config_.arch.latent_dim,
                                   count, rng, config_.conditional_classes());
}

tensor::Tensor CheckpointMixture::forward(std::size_t g,
                                          const tensor::Tensor& latents) {
  CG_EXPECT(g < params_.size());
  generator_.bind(params_[g]);
  return generator_.forward(latents, nn::Cache::kNone);
}

tensor::Tensor CheckpointMixture::sample(std::size_t count, std::uint64_t seed) {
  std::vector<evolve::MixtureMember> members;
  members.reserve(params_.size());
  for (const auto& params : params_) members.push_back({&generator_, params});
  common::Rng rng(seed);
  return evolve::sample_mixture(weights_, members, config_.arch.latent_dim, count, rng,
                                config_.conditional_classes())
      .images;
}

}  // namespace cellgan::core
