#include "core/trainer_core.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/timer.hpp"
#include "evolve/exchange.hpp"

namespace cellgan::core {

TrainerCore::TrainerCore(const TrainingConfig& config, datastore::SampleStore dataset,
                         const CostModel& cost_model)
    : config_(config),
      dataset_(std::move(dataset)),
      cost_model_(cost_model),
      grid_(static_cast<int>(config.grid_rows), static_cast<int>(config.grid_cols)),
      store_(static_cast<std::size_t>(grid_.size())) {}

void TrainerCore::build_cells(const std::function<ExecContext(int)>& context_of) {
  CG_EXPECT(cells_.empty());
  // Allocated before the contexts capture their addresses; never resized.
  cell_virtual_s_.assign(static_cast<std::size_t>(grid_.size()), {});
  contexts_.reserve(grid_.size());
  for (int cell = 0; cell < grid_.size(); ++cell) {
    contexts_.push_back(context_of(cell));
    // Every charge a cell makes also accumulates into its own counter, so
    // the observer records carry schedule-independent per-cell virtual time.
    contexts_.back().virtual_accumulator =
        &cell_virtual_s_[static_cast<std::size_t>(cell)].value;
  }
  common::Rng master_rng(config_.seed);
  cells_.reserve(grid_.size());
  comms_.reserve(grid_.size());
  for (int cell = 0; cell < grid_.size(); ++cell) {
    cells_.push_back(std::make_unique<CellTrainer>(
        config_, grid_, cell, dataset_,
        master_rng.fork(static_cast<std::uint64_t>(cell)), contexts_[cell]));
    comms_.push_back(
        std::make_unique<LocalCommManager>(store_, grid_, cell, contexts_[cell]));
  }
  epoch_records_.assign(static_cast<std::size_t>(grid_.size()), CellEpochRecord{});
}

void TrainerCore::begin_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  recording_ = observing();
  if (recording_) bus_->epoch_started(epoch_);
}

void TrainerCore::run_cell_epoch(int cell) {
  const ExecContext& context = contexts_[cell];
  common::WallTimer gather_wall;
  // The exchange policy names the cells whose genomes this epoch needs
  // (neighbors for cellular; plus a tournament partner / rotation donor for
  // ltfb/gap); the local transport copies exactly that list.
  const auto inbox = comms_[cell]->collect(
      cells_[cell]->exchange_sources(cells_[cell]->iteration()));
  // The virtual gather cost was charged inside collect(); here only the
  // measured wall time enters the books.
  context.charge(common::routine::kGather, gather_wall.elapsed_s(), 0.0);
  cells_[cell]->step(inbox);
  common::WallTimer publish_wall;
  comms_[cell]->publish(cells_[cell]->export_genome());
  context.charge(common::routine::kGather, publish_wall.elapsed_s(), 0.0);

  if (!recording_) return;
  epoch_records_[static_cast<std::size_t>(cell)] = cells_[cell]->epoch_record(
      epoch_, cell_virtual_s_[static_cast<std::size_t>(cell)].value);
}

void TrainerCore::publish_epoch() {
  if (!recording_) return;
  EpochRecord record;
  record.epoch = epoch_;
  // Move the slots out (genome payloads are not small) and re-arm them for
  // the next epoch's writers.
  record.cells = std::move(epoch_records_);
  epoch_records_.assign(static_cast<std::size_t>(grid_.size()), CellEpochRecord{});
  for (const auto& cell : record.cells) bus_->cell_stepped(cell);
  for (const auto& cell : record.cells) bus_->exchange(cell);
  bus_->epoch_completed(record);
}

TrainOutcome TrainerCore::make_outcome(double wall_s, double virtual_s,
                                       common::Profiler profiler) const {
  TrainOutcome outcome;
  outcome.wall_s = wall_s;
  outcome.virtual_s = virtual_s;
  outcome.profiler = std::move(profiler);
  outcome.g_fitnesses.reserve(cells_.size());
  outcome.d_fitnesses.reserve(cells_.size());
  for (const auto& cell : cells_) {
    outcome.g_fitnesses.push_back(cell->g_fitness());
    outcome.d_fitnesses.push_back(cell->d_fitness());
    outcome.train_flops += cell->total_train_flops();
  }
  outcome.best_cell = static_cast<int>(
      std::min_element(outcome.g_fitnesses.begin(), outcome.g_fitnesses.end()) -
      outcome.g_fitnesses.begin());
  return outcome;
}

Checkpoint TrainerCore::checkpoint() const {
  Checkpoint snapshot;
  snapshot.config = config_;
  snapshot.centers.reserve(cells_.size());
  snapshot.mixtures.reserve(cells_.size());
  std::uint32_t iteration = 0;
  for (const auto& cell : cells_) {
    snapshot.centers.push_back(cell->center_genome());
    snapshot.mixtures.push_back(cell->mixture().weights());
    iteration = std::max(iteration, cell->iteration());
  }
  snapshot.iteration = iteration;
  return snapshot;
}

void TrainerCore::restore(const Checkpoint& snapshot) {
  CG_EXPECT(snapshot.centers.size() == cells_.size());
  CG_EXPECT(snapshot.config.arch == config_.arch);
  // A snapshot trained under one exchange policy must not silently continue
  // under another.
  if (snapshot.config.exchange_policy != config_.exchange_policy) {
    throw CheckpointPolicyMismatchError(
        std::string("checkpoint was written under exchange policy '") +
        evolve::to_string(snapshot.config.exchange_policy) +
        "' but this run uses '" + evolve::to_string(config_.exchange_policy) +
        "'");
  }
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const auto& mixture = cell < snapshot.mixtures.size()
                              ? snapshot.mixtures[cell]
                              : std::vector<double>{};
    cells_[cell]->restore(snapshot.centers[cell], mixture);
  }
}

WorkloadProbe TrainerCore::measure_workload(const TrainingConfig& config,
                                            const datastore::SampleStore& dataset) {
  // Run two iterations of a throwaway cell wired to itself: the second
  // iteration installs a full set of neighbor genomes, giving representative
  // update bytes and train flops.
  evolve::Grid grid(static_cast<int>(config.grid_rows), static_cast<int>(config.grid_cols));
  ExecContext context;  // RealTime: no cost model, no clocks
  common::Rng rng(config.seed ^ 0x9e0be5ULL);
  CellTrainer probe_cell(config, grid, 0, dataset, rng, context);

  std::vector<evolve::SharedGenome> inbox(grid.size());
  probe_cell.step(inbox);
  const evolve::SharedGenome genome = probe_cell.export_genome();
  // Pretend every neighbor sent a genome of the same shape.
  for (const int neighbor : grid.neighbors_of(0)) inbox[neighbor] = genome;
  probe_cell.step(inbox);

  WorkloadProbe probe;
  probe.train_flops = probe_cell.last_train_flops();
  probe.update_bytes = std::max(1.0, probe_cell.last_update_bytes());
  probe.mutate_calls = 1.0;
  probe.genome_bytes = static_cast<double>(genome->byte_size());
  return probe;
}

}  // namespace cellgan::core
