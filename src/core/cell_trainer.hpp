// One grid cell's coevolutionary learning algorithm (Section II.B).
//
// Each cell owns a center generator/discriminator pair with persistent Adam
// optimizers, plus the sub-population of neighbor genomes gathered through
// the comm-manager. Neighbor genomes are shared, never copied: tournament
// opponents and mixture members run on their weights in place, through one
// borrowing generator and one borrowing discriminator (nn::Sequential::bind).
// An epoch (step) runs the paper's four profiled routines in order:
//
//   update_genomes — apply the configured exchange policy (evolve/exchange):
//                    cellular installs gathered neighbor genomes and adopts a
//                    strictly fitter neighbor center; ltfb/gap run tournament
//                    replacement / discriminator rotation instead;
//   train          — for each mini-batch, tournament-select (size 2) an
//                    opponent from the sub-population and apply adversarial
//                    gradient steps to the center pair, then re-evaluate
//                    center fitnesses;
//   mutate         — Gaussian mutation of the Adam learning rates
//                    (prob 0.5, sigma 1e-4) and (1+1)-ES mutation of the
//                    neighborhood mixture weights (scale 0.01).
//
// The fourth routine, gather, is the comm-manager exchange driven by the
// surrounding trainer loop. Every routine is wall-timed and charged to the
// cost model, which is how Table IV's per-routine rows are measured.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/comm_manager.hpp"
#include "core/config.hpp"
#include "core/exec_context.hpp"
#include "core/gan_losses.hpp"
#include "core/observer.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/sample_store.hpp"
#include "evolve/exchange.hpp"
#include "evolve/genome.hpp"
#include "evolve/mixture.hpp"
#include "nn/gan_models.hpp"
#include "nn/optimizer.hpp"

namespace cellgan::core {

class CellTrainer : private evolve::ExchangeHost {
 public:
  /// The cell reads its batches from `dataset` (its feed keeps a copy of the
  /// handle). `rng` seeds this cell's private stream (fork per cell for
  /// schedule-independent reproducibility).
  CellTrainer(const TrainingConfig& config, const evolve::Grid& grid, int cell_id,
              const datastore::SampleStore& dataset, common::Rng rng,
              const ExecContext& context);

  /// One coevolutionary epoch. `gathered[cell]` holds that cell's genome
  /// (null entries are skipped; iteration 0 passes all-null).
  void step(std::span<const evolve::SharedGenome> gathered);

  /// Capture the center genome once for the neighbor exchange.
  evolve::SharedGenome export_genome();

  int cell_id() const { return cell_; }
  std::uint32_t iteration() const { return iteration_; }
  double g_fitness() const override { return g_fitness_; }
  double d_fitness() const override { return d_fitness_; }
  /// Objective used in the most recent train() (fixed by config, or the
  /// epoch's Mustangs draw).
  GanLossKind current_loss() const { return current_loss_; }
  double g_learning_rate() const { return g_optimizer_.learning_rate(); }
  double d_learning_rate() const { return d_optimizer_.learning_rate(); }
  const evolve::MixtureWeights& mixture() const { return mixture_; }
  const evolve::Grid& grid() const override { return grid_; }

  /// Cells whose genomes this cell's exchange policy needs for `epoch`
  /// (installation order). Drives the local comm-manager's read list; network
  /// transports may deliver a superset.
  std::vector<int> exchange_sources(std::uint32_t epoch) const;
  /// What the most recent update_genomes did (policy application outcome) —
  /// the payload of the `"event":"exchange"` telemetry.
  const evolve::ExchangeOutcome& last_exchange() const { return last_exchange_; }

  /// Snapshot of the center (params + hyperparams + fitness).
  evolve::CellGenome center_genome();

  /// Assemble this cell's observer record for `epoch` (fitnesses, learning
  /// rates, loss kind, cumulative train flops; on the configured
  /// genome_record_every cadence also the serialized center genome and
  /// mixture weights). `virtual_s` is supplied by the caller — the cell's
  /// own charge accumulator in-process, the rank clock on a slave — which
  /// is the only field that differs between the two publishers.
  CellEpochRecord epoch_record(std::uint32_t epoch, double virtual_s);

  /// Restore the center pair (and optionally the mixture) from a checkpoint
  /// snapshot: parameters, learning rates, fitnesses and iteration counter.
  /// Adam moment state restarts (only parameters travel in genomes, matching
  /// the exchange semantics).
  void restore(const evolve::CellGenome& genome, std::span<const double> mixture_weights);

  /// Serialize the *complete* training state — center genome, both Adam
  /// moment sets, the private rng stream, the loader's epoch order and
  /// cursor, installed neighbor genomes, mixture weights, loss draw and
  /// flops counters. Unlike the grid Checkpoint (which keeps only what the
  /// exchange moves), restoring this replays the remaining epochs
  /// bit-identically — the contract rank-death recovery's survivor-parity
  /// guarantee rests on.
  std::vector<std::uint8_t> serialize_training_state();
  void restore_training_state(std::span<const std::uint8_t> bytes);

  /// Work counters for cost-model calibration probes.
  double last_train_flops() const { return last_train_flops_; }
  double last_update_bytes() const { return last_update_bytes_; }
  /// Cumulative train-routine flops over every step() so far — harvested on
  /// whichever thread executed the step, so totals are schedule-independent.
  double total_train_flops() const { return total_train_flops_; }

 private:
  struct SubpopSlot {
    evolve::SharedGenome genome;  ///< null until first exchange
  };

  // ExchangeHost — the surface the pluggable exchange policy manipulates.
  int cell() const override { return cell_; }
  std::size_t subpop_slots() const override { return subpop_.size(); }
  const evolve::CellGenome* subpop_genome(std::size_t slot) const override;
  void install_subpop(std::size_t slot, evolve::SharedGenome genome) override;
  void adopt_generator(const evolve::CellGenome& genome) override;
  void adopt_discriminator(const evolve::CellGenome& genome) override;

  /// Re-align subpopulation slots (and mixture size) with the grid's current
  /// neighbor list — supports dynamic topology reconfiguration: genomes of
  /// cells that remain neighbors are kept, new slots start empty, and the
  /// mixture resets to uniform when membership changes.
  void sync_topology();

  void update_genomes(std::span<const evolve::SharedGenome> gathered);
  void train();
  void mutate();
  void evaluate_center_fitness();
  double mixture_quality(const evolve::MixtureWeights& weights);

  TrainingConfig config_;  // by value: outlives any caller-side copy
  const evolve::Grid& grid_;
  int cell_;
  ExecContext context_;  // pointers inside must outlive the trainer
  common::Rng rng_;

  /// Batch source: every row of the shared store, or this cell's dieting
  /// rows (drawn from rng_ at construction, so it must follow rng_).
  datastore::StoreFeed feed_;
  std::size_t next_batch_ = 0;

  nn::Sequential generator_;
  nn::Sequential discriminator_;
  nn::Adam g_optimizer_;
  nn::Adam d_optimizer_;

  /// Borrowing networks (no weights of their own), bound to a neighbor
  /// genome's parameters for each tournament opponent and mixture member.
  nn::Sequential neighbor_generator_;
  nn::Sequential neighbor_discriminator_;

  std::vector<SubpopSlot> subpop_;  ///< slot i <-> subpop_ids_[i]
  std::vector<int> subpop_ids_;     ///< neighbor cell ids, mirrors the grid
  evolve::MixtureWeights mixture_;

  /// How genomes migrate each epoch (cellular/ltfb/gap), resolved from the
  /// config at construction. Policies are pure functions of (seed, cell,
  /// epoch) and never touch rng_.
  std::unique_ptr<evolve::ExchangePolicy> policy_;
  evolve::ExchangeOutcome last_exchange_;

  double g_fitness_ = 0.0;
  double d_fitness_ = 0.0;
  GanLossKind current_loss_ = GanLossKind::kHeuristic;
  std::uint32_t iteration_ = 0;

  double last_train_flops_ = 0.0;
  double total_train_flops_ = 0.0;
  double last_update_bytes_ = 0.0;
};

}  // namespace cellgan::core
