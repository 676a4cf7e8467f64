#include "core/config.hpp"

#include "common/serialize.hpp"

namespace cellgan::core {

const char* to_string(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kAllgather: return "allgather";
    case ExchangeMode::kAsyncNeighbors: return "async-neighbors";
  }
  return "unknown";
}

const char* to_string(LossMode mode) {
  switch (mode) {
    case LossMode::kHeuristic: return "heuristic";
    case LossMode::kMinimax: return "minimax";
    case LossMode::kLeastSquares: return "least-squares";
    case LossMode::kMustangs: return "mustangs";
    case LossMode::kWasserstein: return "wasserstein";
  }
  return "unknown";
}

TrainingConfig TrainingConfig::tiny() {
  TrainingConfig config;
  config.arch = nn::GanArch::tiny();
  config.iterations = 3;
  config.batch_size = 16;
  config.fitness_eval_samples = 16;
  config.batches_per_iteration = 1;
  return config;
}

namespace {
// The arch sizes are std::size_t, 8 bytes on every supported host.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

constexpr auto kConfigFields = [](auto& v, auto& config) {
  v(config.arch.latent_dim);
  v(config.arch.hidden_dim);
  v(config.arch.hidden_layers);
  v(config.arch.image_dim);
  v(config.iterations);
  v(config.tournament_size);
  v(config.grid_rows);
  v(config.grid_cols);
  v(config.mixture_mutation_scale);
  v(config.initial_learning_rate);
  v(config.lr_mutation_sigma);
  v(config.lr_mutation_probability);
  v(config.batch_size);
  v(config.discriminator_skip_steps);
  v(config.batches_per_iteration);
  v(config.fitness_eval_samples);
  v(config.loss_mode);
  v(config.exchange_mode);
  v(config.data_dieting_fraction);
  v(config.genome_record_every);
  v(config.genome_record_every_b);
  v(config.forward_records);
  v(config.data_plane);
  v(config.seed);
  v(config.exchange_policy);
  v(config.exchange_every);
  v(config.conditional);
  v(config.weight_clip);
};
}  // namespace

std::vector<std::uint8_t> TrainingConfig::serialize() const {
  return common::encode(*this, kConfigFields);
}

TrainingConfig TrainingConfig::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<TrainingConfig>(bytes, kConfigFields);
}

}  // namespace cellgan::core
