// Training configuration — the C++ mirror of the paper's Table I.
//
// Defaults reproduce the paper's settings exactly; tests and wall-clock
// benchmarks override toward smaller nets / fewer iterations. The config is
// serializable because the master broadcasts it to every slave at startup
// ("sharing the parameter configuration to be used in the execution with all
// slave processes", Section III.B).
#pragma once

#include <cstdint>
#include <vector>

#include "datastore/data_plane.hpp"
#include "evolve/exchange.hpp"
#include "nn/gan_models.hpp"

namespace cellgan::core {

/// Which adversarial objective the cells train with. The first three pin one
/// objective for the whole run (kHeuristic = Lipizzaner's default); kMustangs
/// applies Mustangs-style loss-function mutation — each cell draws a fresh
/// objective from {heuristic, minimax, least-squares} every epoch;
/// kWasserstein trains a WGAN critic (linear losses + weight clipping).
enum class LossMode : std::uint32_t {
  kHeuristic = 0,
  kMinimax = 1,
  kLeastSquares = 2,
  kMustangs = 3,
  kWasserstein = 4,
};

const char* to_string(LossMode mode);

/// How slaves exchange center genomes after each epoch.
enum class ExchangeMode : std::uint32_t {
  /// Collective allgather over the LOCAL communicator — the paper's
  /// implementation. Synchronizes the whole grid every epoch.
  kAllgather = 0,
  /// Point-to-point publication to neighbors + non-blocking newest-available
  /// reads: no epoch barrier, stragglers never stall the grid.
  kAsyncNeighbors = 1,
};

const char* to_string(ExchangeMode mode);

struct TrainingConfig {
  // -- Network topology (Table I) -------------------------------------------
  nn::GanArch arch = nn::GanArch::paper();

  // -- Coevolutionary settings (Table I) -------------------------------------
  std::uint32_t iterations = 200;
  std::uint32_t tournament_size = 2;
  std::uint32_t grid_rows = 2;
  std::uint32_t grid_cols = 2;
  double mixture_mutation_scale = 0.01;

  // -- Hyperparameter mutation (Table I) --------------------------------------
  double initial_learning_rate = 0.0002;  // Adam
  double lr_mutation_sigma = 0.0001;      // "mutation rate"
  double lr_mutation_probability = 0.5;

  // -- Training settings (Table I) --------------------------------------------
  std::uint32_t batch_size = 100;
  std::uint32_t discriminator_skip_steps = 1;  // "Skip N disc. steps"

  // -- Implementation knobs (not in Table I) ----------------------------------
  std::uint32_t batches_per_iteration = 1;  ///< gradient batches per epoch/cell
  std::uint32_t fitness_eval_samples = 100; ///< batch used for fitness evals
  LossMode loss_mode = LossMode::kHeuristic;
  ExchangeMode exchange_mode = ExchangeMode::kAllgather;
  /// Data dieting [Toutouh et al., 2020, ref. 20 of the paper]: each cell
  /// trains on an independent random subsample of this fraction of the
  /// training set (1.0 = full data, Lipizzaner's default). Cuts per-cell
  /// memory and adds data-level diversity across the grid.
  double data_dieting_fraction = 1.0;
  /// Genome-payload cadences of the observer records: on epochs matching
  /// either cadence (see genome_record_epoch), each cell's per-epoch record
  /// additionally carries its serialized center genome + mixture weights —
  /// the payload the metric evaluator (cadence a) and checkpoint policy
  /// (cadence b) consume; two independent divisors instead of one gcd, so
  /// coprime cadences don't degrade to every-epoch serialization. 0 = off.
  /// Broadcast with the rest of the config so distributed slaves know them.
  /// Purely observational: does not change the training trajectory.
  std::uint32_t genome_record_every = 0;
  std::uint32_t genome_record_every_b = 0;
  /// Runtime-derived by the distributed master (never set in a spec): 1 when
  /// a TrainObserver is subscribed at rank 0, telling slaves to forward
  /// per-epoch records at all. Keeps unobserved runs free of record traffic.
  std::uint32_t forward_records = 0;
  /// Which data plane serves training batches: the legacy per-trainer
  /// DataLoader or the shared SampleStore. Bit-identical trajectories either
  /// way; broadcast so distributed slaves agree.
  datastore::DataPlane data_plane = datastore::DataPlane::kLegacy;
  std::uint64_t seed = 42;
  /// How genomes/discriminators migrate between cells each epoch (cellular
  /// neighborhoods, LTFB tournaments, GAP discriminator rotation).
  /// Broadcast so all ranks run the identical policy; a checkpoint refuses to
  /// resume under a different policy (CheckpointPolicyMismatchError).
  evolve::ExchangePolicyKind exchange_policy = evolve::ExchangePolicyKind::kCellular;
  /// Tournament/rotation cadence in epochs for ltfb/gap (cellular migrates
  /// every epoch regardless).
  std::uint32_t exchange_every = 1;
  /// Class-conditional training: latents and discriminator inputs carry a
  /// one-hot label plane of `conditional_classes()` classes.
  std::uint32_t conditional = 0;
  /// WGAN critic weight clip (|w| <= weight_clip after each critic step);
  /// only applied under LossMode::kWasserstein.
  double weight_clip = 0.01;

  std::uint32_t grid_cells() const { return grid_rows * grid_cols; }

  /// One-hot label width of the conditional pathway (0 when unconditional).
  /// MNIST-shaped datasets label 10 classes (data::kNumClasses).
  std::size_t conditional_classes() const { return conditional != 0 ? 10 : 0; }

  /// True when this (0-based, run-relative) epoch's observer records carry
  /// genome payloads: the epoch matches either configured cadence.
  bool genome_record_epoch(std::uint32_t epoch) const {
    const auto matches = [epoch](std::uint32_t every) {
      return every > 0 && (epoch + 1) % every == 0;
    };
    return matches(genome_record_every) || matches(genome_record_every_b);
  }

  /// Tiny configuration for unit/integration tests and wall-clock benches.
  static TrainingConfig tiny();

  std::vector<std::uint8_t> serialize() const;
  static TrainingConfig deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const TrainingConfig&, const TrainingConfig&) = default;
};

}  // namespace cellgan::core
