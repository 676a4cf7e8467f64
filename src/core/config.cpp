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

std::vector<std::uint8_t> TrainingConfig::serialize() const {
  common::ByteWriter w;
  w.write<std::uint64_t>(arch.latent_dim);
  w.write<std::uint64_t>(arch.hidden_dim);
  w.write<std::uint64_t>(arch.hidden_layers);
  w.write<std::uint64_t>(arch.image_dim);
  w.write(iterations);
  w.write(tournament_size);
  w.write(grid_rows);
  w.write(grid_cols);
  w.write(mixture_mutation_scale);
  w.write(initial_learning_rate);
  w.write(lr_mutation_sigma);
  w.write(lr_mutation_probability);
  w.write(batch_size);
  w.write(discriminator_skip_steps);
  w.write(batches_per_iteration);
  w.write(fitness_eval_samples);
  w.write(static_cast<std::uint32_t>(loss_mode));
  w.write(static_cast<std::uint32_t>(exchange_mode));
  w.write(data_dieting_fraction);
  w.write(genome_record_every);
  w.write(genome_record_every_b);
  w.write(forward_records);
  w.write(static_cast<std::uint32_t>(data_plane));
  w.write(seed);
  w.write(static_cast<std::uint32_t>(exchange_policy));
  w.write(exchange_every);
  w.write(conditional);
  w.write(weight_clip);
  return w.take();
}

TrainingConfig TrainingConfig::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  TrainingConfig c;
  c.arch.latent_dim = r.read<std::uint64_t>();
  c.arch.hidden_dim = r.read<std::uint64_t>();
  c.arch.hidden_layers = r.read<std::uint64_t>();
  c.arch.image_dim = r.read<std::uint64_t>();
  c.iterations = r.read<std::uint32_t>();
  c.tournament_size = r.read<std::uint32_t>();
  c.grid_rows = r.read<std::uint32_t>();
  c.grid_cols = r.read<std::uint32_t>();
  c.mixture_mutation_scale = r.read<double>();
  c.initial_learning_rate = r.read<double>();
  c.lr_mutation_sigma = r.read<double>();
  c.lr_mutation_probability = r.read<double>();
  c.batch_size = r.read<std::uint32_t>();
  c.discriminator_skip_steps = r.read<std::uint32_t>();
  c.batches_per_iteration = r.read<std::uint32_t>();
  c.fitness_eval_samples = r.read<std::uint32_t>();
  c.loss_mode = static_cast<LossMode>(r.read<std::uint32_t>());
  c.exchange_mode = static_cast<ExchangeMode>(r.read<std::uint32_t>());
  c.data_dieting_fraction = r.read<double>();
  c.genome_record_every = r.read<std::uint32_t>();
  c.genome_record_every_b = r.read<std::uint32_t>();
  c.forward_records = r.read<std::uint32_t>();
  c.data_plane = static_cast<datastore::DataPlane>(r.read<std::uint32_t>());
  c.seed = r.read<std::uint64_t>();
  c.exchange_policy = static_cast<evolve::ExchangePolicyKind>(r.read<std::uint32_t>());
  c.exchange_every = r.read<std::uint32_t>();
  c.conditional = r.read<std::uint32_t>();
  c.weight_clip = r.read<double>();
  CG_ENSURE(r.exhausted());
  return c;
}

}  // namespace cellgan::core
