#include "core/cell_trainer.hpp"

#include <algorithm>
#include <utility>

#include "common/serialize.hpp"
#include "core/gan_trainer.hpp"
#include "evolve/evolution.hpp"
#include "nn/init.hpp"
#include "tensor/flops.hpp"
#include "tensor/ops.hpp"

namespace cellgan::core {

namespace {

/// Data dieting: draw the rows of this cell's private training subsample, or
/// none to train on every row of the shared store.
std::vector<std::uint32_t> make_diet(const TrainingConfig& config, std::size_t samples,
                                     common::Rng& rng) {
  if (config.data_dieting_fraction >= 1.0) return {};
  CG_EXPECT(config.data_dieting_fraction > 0.0);
  const auto count = std::max<std::size_t>(
      config.batch_size,
      static_cast<std::size_t>(config.data_dieting_fraction *
                               static_cast<double>(samples)));
  return data::subsample_rows(samples, std::min(count, samples), rng);
}

}  // namespace

CellTrainer::CellTrainer(const TrainingConfig& config, const evolve::Grid& grid, int cell_id,
                         const datastore::SampleStore& dataset, common::Rng rng,
                         const ExecContext& context)
    : config_(config),
      grid_(grid),
      cell_(cell_id),
      context_(context),
      rng_(rng),
      feed_(dataset, config.batch_size, make_diet(config_, dataset.samples(), rng_)),
      generator_(nn::make_generator(config.arch, rng_, config.conditional_classes())),
      discriminator_(
          nn::make_discriminator(config.arch, rng_, config.conditional_classes())),
      g_optimizer_(config.initial_learning_rate),
      d_optimizer_(config.initial_learning_rate),
      neighbor_generator_(
          nn::borrowing_generator(config.arch, config.conditional_classes())),
      neighbor_discriminator_(
          nn::borrowing_discriminator(config.arch, config.conditional_classes())),
      subpop_(grid.neighbors_of(cell_id).size()),
      subpop_ids_(grid.neighbors_of(cell_id)),
      mixture_(grid.subpopulation_size(cell_id)),
      policy_(evolve::make_exchange_policy(config.exchange_policy, config.seed,
                                           config.exchange_every)) {
  CG_EXPECT(dataset.sample_dim() == config_.arch.image_dim);
  // Cells once initialized a spare generator and discriminator from their
  // stream here; skipping those draws keeps every trajectory's bits.
  nn::skip_xavier_uniform_init(neighbor_generator_, rng_);
  nn::skip_xavier_uniform_init(neighbor_discriminator_, rng_);
  feed_.reshuffle(rng_);
  evaluate_center_fitness();
}

void CellTrainer::sync_topology() {
  const auto& neighbors = grid_.neighbors_of(cell_);
  if (neighbors == subpop_ids_) return;
  std::vector<SubpopSlot> remapped(neighbors.size());
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (std::size_t old = 0; old < subpop_ids_.size(); ++old) {
      if (subpop_ids_[old] == neighbors[i]) {
        remapped[i] = std::move(subpop_[old]);
        break;
      }
    }
  }
  subpop_ = std::move(remapped);
  subpop_ids_ = neighbors;
  mixture_ = evolve::MixtureWeights(neighbors.size() + 1);
}

void CellTrainer::step(std::span<const evolve::SharedGenome> gathered) {
  // Each routine harvests its flops in a scoped section on whichever thread
  // runs this step — a scheduler may execute cells on arbitrary pool workers,
  // and the scope keeps per-cell counts exact while restoring (and
  // propagating) the executing thread's outer counter.
  {
    common::WallTimer timer;
    tensor::ScopedFlopsCounter section;  // install cost is byte-based
    update_genomes(gathered);
    double virtual_s = 0.0;
    if (context_.virtual_time()) {
      virtual_s = context_.cost->update_seconds(context_.mode, context_.grid_cells,
                                                last_update_bytes_) *
                  context_.compute_jitter();
    }
    context_.charge(common::routine::kUpdateGenomes, timer.elapsed_s(), virtual_s);
  }
  {
    common::WallTimer timer;
    tensor::ScopedFlopsCounter section;
    train();
    last_train_flops_ = static_cast<double>(section.taken());
    total_train_flops_ += last_train_flops_;
    double virtual_s = 0.0;
    if (context_.virtual_time()) {
      virtual_s = context_.cost->train_seconds(context_.mode, context_.grid_cells,
                                               last_train_flops_) *
                  context_.compute_jitter();
    }
    context_.charge(common::routine::kTrain, timer.elapsed_s(), virtual_s);
  }
  {
    common::WallTimer timer;
    tensor::ScopedFlopsCounter section;  // mixture-ES forwards fold into call cost
    mutate();
    double virtual_s = 0.0;
    if (context_.virtual_time()) {
      virtual_s =
          context_.cost->mutate_seconds(context_.mode, context_.grid_cells, 1.0);
    }
    context_.charge(common::routine::kMutate, timer.elapsed_s(), virtual_s);
  }
  ++iteration_;
}

void CellTrainer::update_genomes(std::span<const evolve::SharedGenome> gathered) {
  sync_topology();
  last_exchange_ = policy_->apply(*this, gathered, iteration_);
  last_update_bytes_ = last_exchange_.bytes_in;
}

std::vector<int> CellTrainer::exchange_sources(std::uint32_t epoch) const {
  return policy_->sources(grid_, cell_, epoch);
}

std::vector<int> CellTrainer::exchange_readers(std::uint32_t epoch) const {
  std::vector<int> readers;
  for (int cell = 0; cell < grid_.size(); ++cell) {
    const std::vector<int> sources = policy_->sources(grid_, cell, epoch);
    if (std::find(sources.begin(), sources.end(), cell_) != sources.end()) {
      readers.push_back(cell);
    }
  }
  return readers;
}

const evolve::CellGenome* CellTrainer::subpop_genome(std::size_t slot) const {
  return subpop_[slot].genome.get();
}

void CellTrainer::install_subpop(std::size_t slot, evolve::SharedGenome genome) {
  subpop_[slot].genome = std::move(genome);
}

void CellTrainer::adopt_generator(const evolve::CellGenome& genome) {
  generator_.load_parameters(genome.generator_params);
  g_optimizer_.set_learning_rate(genome.g_learning_rate);
  g_fitness_ = genome.g_fitness;
}

void CellTrainer::adopt_discriminator(const evolve::CellGenome& genome) {
  discriminator_.load_parameters(genome.discriminator_params);
  d_optimizer_.set_learning_rate(genome.d_learning_rate);
  d_fitness_ = genome.d_fitness;
}

void CellTrainer::train() {
  // Pick this epoch's objective: fixed by configuration, or a fresh Mustangs
  // draw from the three E-GAN objectives.
  switch (config_.loss_mode) {
    case LossMode::kHeuristic: current_loss_ = GanLossKind::kHeuristic; break;
    case LossMode::kMinimax: current_loss_ = GanLossKind::kMinimax; break;
    case LossMode::kLeastSquares: current_loss_ = GanLossKind::kLeastSquares; break;
    case LossMode::kMustangs:
      current_loss_ = static_cast<GanLossKind>(rng_.uniform_int(3));
      break;
    case LossMode::kWasserstein: current_loss_ = GanLossKind::kWasserstein; break;
  }

  GanStepOptions options;
  options.label_classes = config_.conditional_classes();
  options.weight_clip =
      current_loss_ == GanLossKind::kWasserstein ? config_.weight_clip : 0.0;

  // Sub-population fitness tables for tournament selection: entry 0 is the
  // center, entries 1.. are the installed neighbor genomes.
  std::vector<double> d_table{d_fitness_};
  std::vector<double> g_table{g_fitness_};
  std::vector<const evolve::CellGenome*> members{nullptr};  // nullptr = center
  for (const auto& slot : subpop_) {
    if (!slot.genome) continue;
    d_table.push_back(slot.genome->d_fitness);
    g_table.push_back(slot.genome->g_fitness);
    members.push_back(slot.genome.get());
  }

  for (std::uint32_t b = 0; b < config_.batches_per_iteration; ++b) {
    if (next_batch_ >= feed_.batches_per_epoch()) {
      feed_.reshuffle(rng_);
      next_batch_ = 0;
    }
    const std::size_t batch_index = next_batch_++;
    const tensor::Tensor real = feed_.batch(batch_index);
    std::vector<std::uint32_t> real_labels;
    if (options.label_classes > 0) {
      real_labels = feed_.batch_labels(batch_index);
      options.real_labels = real_labels;
    }

    // Train the center generator against a tournament-selected discriminator.
    const std::size_t d_pick =
        evolve::tournament_select(d_table, config_.tournament_size, rng_);
    nn::Sequential* opponent_d = &discriminator_;
    if (members[d_pick] != nullptr) {
      neighbor_discriminator_.bind(members[d_pick]->discriminator_params);
      opponent_d = &neighbor_discriminator_;
    }
    train_generator_step(generator_, g_optimizer_, *opponent_d, config_.batch_size,
                         config_.arch.latent_dim, rng_, current_loss_, options);

    // Train the center discriminator against a tournament-selected generator,
    // honoring the "skip N discriminator steps" setting.
    if (config_.discriminator_skip_steps == 0 ||
        b % config_.discriminator_skip_steps == 0) {
      const std::size_t g_pick =
          evolve::tournament_select(g_table, config_.tournament_size, rng_);
      nn::Sequential* opponent_g = &generator_;
      if (members[g_pick] != nullptr) {
        neighbor_generator_.bind(members[g_pick]->generator_params);
        opponent_g = &neighbor_generator_;
      }
      train_discriminator_step(discriminator_, d_optimizer_, *opponent_g, real,
                               config_.arch.latent_dim, rng_, current_loss_,
                               options);
    }
  }

  evaluate_center_fitness();
}

void CellTrainer::evaluate_center_fitness() {
  if (next_batch_ >= feed_.batches_per_epoch()) {
    feed_.reshuffle(rng_);
    next_batch_ = 0;
  }
  const tensor::Tensor real = feed_.batch(next_batch_);
  const std::size_t eval_n =
      std::min<std::size_t>(config_.fitness_eval_samples, real.rows());
  const tensor::Tensor eval_real = real.slice_rows(0, eval_n);
  GanStepOptions options;
  options.label_classes = config_.conditional_classes();
  std::vector<std::uint32_t> real_labels;
  if (options.label_classes > 0) {
    real_labels = feed_.batch_labels(next_batch_);
    real_labels.resize(eval_n);
    options.real_labels = real_labels;
  }
  g_fitness_ = evaluate_generator_loss(generator_, discriminator_, eval_n,
                                       config_.arch.latent_dim, rng_, options);
  d_fitness_ = evaluate_discriminator_loss(discriminator_, generator_, eval_real,
                                           config_.arch.latent_dim, rng_, options);
}

void CellTrainer::mutate() {
  // Hyperparameter mutation (Table I): Gaussian on both Adam learning rates.
  g_optimizer_.set_learning_rate(
      evolve::mutate_learning_rate(g_optimizer_.learning_rate(), config_.lr_mutation_sigma,
                                   config_.lr_mutation_probability, rng_));
  d_optimizer_.set_learning_rate(
      evolve::mutate_learning_rate(d_optimizer_.learning_rate(), config_.lr_mutation_sigma,
                                   config_.lr_mutation_probability, rng_));

  // Mixture evolution: (1+1)-ES with Gaussian weight mutation. The candidate
  // replaces the incumbent when the mixture fools the center discriminator
  // at least as well.
  const evolve::MixtureWeights candidate =
      mixture_.mutated(config_.mixture_mutation_scale, rng_);
  if (mixture_quality(candidate) <= mixture_quality(mixture_)) {
    mixture_ = candidate;
  }
}

double CellTrainer::mixture_quality(const evolve::MixtureWeights& weights) {
  // Lower is better: generator-side BCE of mixture samples against the
  // center discriminator on a small probe batch. Member 0 is the center; a
  // neighbor not yet received falls back to it. Rows stay grouped by member,
  // which fixes the loss's summation order.
  const std::size_t probe = std::max<std::size_t>(8, config_.fitness_eval_samples / 4);
  const std::size_t classes = config_.conditional_classes();
  std::vector<evolve::MixtureMember> members{{&generator_, {}}};
  for (const auto& slot : subpop_) {
    members.push_back(slot.genome ? evolve::MixtureMember{&neighbor_generator_,
                                                          slot.genome->generator_params}
                                  : evolve::MixtureMember{&generator_, {}});
  }
  const evolve::MixtureSample sample =
      evolve::sample_mixture(weights, members, config_.arch.latent_dim, probe, rng_,
                             classes, evolve::MixtureRows::kByMember);
  const tensor::Tensor logits = discriminator_.forward(
      classes == 0 ? sample.images : append_one_hot(sample.images, sample.labels, classes),
      nn::Cache::kNone);
  auto [loss, grad] = tensor::bce_with_logits(
      logits, tensor::Tensor::full(sample.images.rows(), 1, 1.0f));
  (void)grad;
  return loss;
}

evolve::SharedGenome CellTrainer::export_genome() {
  return std::make_shared<const evolve::CellGenome>(center_genome());
}

void CellTrainer::restore(const evolve::CellGenome& genome,
                          std::span<const double> mixture_weights) {
  genome.install(generator_, discriminator_);
  g_optimizer_.set_learning_rate(genome.g_learning_rate);
  d_optimizer_.set_learning_rate(genome.d_learning_rate);
  g_optimizer_.reset();
  d_optimizer_.reset();
  g_fitness_ = genome.g_fitness;
  d_fitness_ = genome.d_fitness;
  iteration_ = genome.iteration;
  if (mixture_weights.size() == mixture_.size()) {
    mixture_.restore_weights({mixture_weights.begin(), mixture_weights.end()});
  }
}

// Hand-written, not a field list: restoring installs state into live networks,
// optimizers and the feed, and a subpopulation slot carries a presence byte
// where RankCheckpoint writes an empty blob.
std::vector<std::uint8_t> CellTrainer::serialize_training_state() {
  common::ByteWriter w;
  w.write_vector(center_genome().serialize());
  const auto write_adam = [&w](const nn::Adam& optimizer) {
    w.write<std::uint64_t>(optimizer.steps_taken());
    const auto write_moments = [&w](const std::vector<std::vector<float>>& moments) {
      w.write<std::uint64_t>(moments.size());
      for (const auto& buffer : moments) w.write_vector(buffer);
    };
    write_moments(optimizer.first_moments());
    write_moments(optimizer.second_moments());
  };
  write_adam(g_optimizer_);
  write_adam(d_optimizer_);
  const common::Rng::State rng = rng_.state();
  for (const std::uint64_t word : rng.s) w.write(word);
  w.write(rng.cached_normal);
  w.write<std::uint8_t>(rng.has_cached_normal ? 1 : 0);
  w.write_vector(feed_.order());
  w.write<std::uint64_t>(next_batch_);
  w.write<std::uint64_t>(subpop_.size());
  for (const auto& slot : subpop_) {
    w.write<std::uint8_t>(slot.genome ? 1 : 0);
    if (slot.genome) w.write_vector(slot.genome->serialize());
  }
  w.write_vector(mixture_.weights());
  w.write<std::uint32_t>(static_cast<std::uint32_t>(current_loss_));
  w.write(last_train_flops_);
  w.write(total_train_flops_);
  w.write(last_update_bytes_);
  policy_->serialize_state(w);  // policy-private state (LTFB win counters)
  return w.take();
}

void CellTrainer::restore_training_state(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  const evolve::CellGenome genome = evolve::CellGenome::deserialize(r.read_vector<std::uint8_t>());
  genome.install(generator_, discriminator_);
  g_optimizer_.set_learning_rate(genome.g_learning_rate);
  d_optimizer_.set_learning_rate(genome.d_learning_rate);
  g_fitness_ = genome.g_fitness;
  d_fitness_ = genome.d_fitness;
  iteration_ = genome.iteration;
  const auto read_adam = [&r](nn::Adam& optimizer) {
    const auto steps = r.read<std::uint64_t>();
    const auto read_moments = [&r] {
      std::vector<std::vector<float>> moments(r.read<std::uint64_t>());
      for (auto& buffer : moments) buffer = r.read_vector<float>();
      return moments;
    };
    auto m = read_moments();
    auto v = read_moments();
    optimizer.restore_moments(steps, std::move(m), std::move(v));
  };
  read_adam(g_optimizer_);
  read_adam(d_optimizer_);
  common::Rng::State rng;
  for (auto& word : rng.s) word = r.read<std::uint64_t>();
  rng.cached_normal = r.read<double>();
  rng.has_cached_normal = r.read<std::uint8_t>() != 0;
  rng_.restore_state(rng);
  feed_.restore_order(r.read_vector<std::uint32_t>());
  next_batch_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  const auto slots = r.read<std::uint64_t>();
  CG_EXPECT(slots == subpop_.size());  // same config + grid topology
  for (auto& slot : subpop_) {
    if (r.read<std::uint8_t>() != 0) {
      slot.genome = std::make_shared<const evolve::CellGenome>(
          evolve::CellGenome::deserialize(r.read_vector<std::uint8_t>()));
    } else {
      slot.genome.reset();
    }
  }
  const auto weights = r.read_vector<double>();
  CG_EXPECT(weights.size() == mixture_.size());
  mixture_.restore_weights(weights);
  current_loss_ = static_cast<GanLossKind>(r.read<std::uint32_t>());
  last_train_flops_ = r.read<double>();
  total_train_flops_ = r.read<double>();
  last_update_bytes_ = r.read<double>();
  policy_->restore_state(r);
  CG_ENSURE(r.exhausted());
}

evolve::CellGenome CellTrainer::center_genome() {
  evolve::CellGenome g = evolve::CellGenome::capture(generator_, discriminator_);
  g.g_learning_rate = g_optimizer_.learning_rate();
  g.d_learning_rate = d_optimizer_.learning_rate();
  g.g_fitness = g_fitness_;
  g.d_fitness = d_fitness_;
  g.origin_cell = static_cast<std::uint32_t>(cell_);
  g.iteration = iteration_;
  return g;
}

CellEpochRecord CellTrainer::epoch_record(std::uint32_t epoch, double virtual_s) {
  CellEpochRecord record;
  record.cell = static_cast<std::uint32_t>(cell_);
  record.epoch = epoch;
  record.g_fitness = g_fitness_;
  record.d_fitness = d_fitness_;
  record.g_learning_rate = g_optimizer_.learning_rate();
  record.d_learning_rate = d_optimizer_.learning_rate();
  record.loss_kind = static_cast<std::uint32_t>(current_loss_);
  record.virtual_s = virtual_s;
  record.train_flops = total_train_flops_;
  record.exchange_policy = static_cast<std::uint32_t>(policy_->kind());
  record.exchange_partner = last_exchange_.partner;
  record.exchange_g_adopted = last_exchange_.g_adopted ? 1 : 0;
  record.exchange_d_adopted = last_exchange_.d_adopted ? 1 : 0;
  record.exchange_g_before = last_exchange_.g_fitness_before;
  record.exchange_g_after = last_exchange_.g_fitness_after;
  record.exchange_d_before = last_exchange_.d_fitness_before;
  record.exchange_d_after = last_exchange_.d_fitness_after;
  record.exchange_wins = last_exchange_.wins;
  record.exchange_bytes = last_exchange_.bytes_in;
  if (config_.genome_record_epoch(epoch)) {
    record.genome = center_genome().serialize();
    record.mixture_weights = mixture_.weights();
  }
  return record;
}

}  // namespace cellgan::core
