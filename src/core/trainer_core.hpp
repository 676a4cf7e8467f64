// Schedule-independent core of the in-process trainer
// (core/parallel_trainer.hpp).
//
// Every cell runs the same cellular epoch — collect the neighbors'
// previous-epoch genomes, step the cell's coevolutionary algorithm, publish
// the new center genome — over one double-buffered GenomeStore, whichever
// lane executes it. TrainerCore owns everything schedule-independent: grid,
// cells, comm managers, outcome assembly, checkpoint/restore and the
// workload calibration probe.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "core/cell_trainer.hpp"
#include "core/checkpoint.hpp"
#include "core/comm_manager.hpp"
#include "core/config.hpp"
#include "core/cost_model.hpp"
#include "core/observer.hpp"
#include "data/dataset.hpp"
#include "evolve/grid.hpp"

namespace cellgan::core {

/// Result of a full training run (any mode).
struct TrainOutcome {
  double wall_s = 0.0;
  double virtual_s = 0.0;              ///< simulated makespan (0 if disabled)
  double train_flops = 0.0;            ///< total flops spent in train, all cells
  common::Profiler profiler;           ///< per-routine totals (see Table IV)
  std::vector<double> g_fitnesses;     ///< final per-cell generator losses
  std::vector<double> d_fitnesses;
  int best_cell = 0;                   ///< argmin generator fitness
};

/// Schedule-independent machinery shared by the in-process trainers.
class TrainerCore {
 public:
  /// `dataset` must outlive the core.
  TrainerCore(const TrainingConfig& config, const data::Dataset& dataset,
              const CostModel& cost_model);

  /// Construct one CellTrainer + LocalCommManager per grid cell, seeding each
  /// cell's private rng stream exactly as the paper's reproducibility rule
  /// requires (fork of the master seed keyed by cell id). `context_of(cell)`
  /// supplies each cell's execution context — one per worker lane. The
  /// returned contexts are stored by value, so the clock/profiler/cost
  /// pointers inside must outlive this core. Call exactly once.
  void build_cells(const std::function<ExecContext(int)>& context_of);

  /// Subscribe the run to an event bus (may be null / empty: observation is
  /// strictly pay-for-use). Call before run; the bus must outlive the core.
  void set_observers(EventBus* bus) { bus_ = bus; }
  /// True when at least one observer is subscribed (records get assembled).
  bool observing() const { return bus_ != nullptr && !bus_->empty(); }

  /// Open epoch `epoch` (run-relative, 0-based): publishes epoch-started and
  /// arms per-cell record collection. Call before the epoch's cell steps.
  void begin_epoch(std::uint32_t epoch);

  /// One cell's epoch: collect the visible neighbor genomes, run the cell's
  /// coevolutionary step, stage the new center genome for the next epoch.
  /// Safe to call concurrently for distinct cells. When observing, the
  /// cell's record is assembled here on the stepping thread (distinct cells
  /// write distinct slots, so this stays race-free) but published only at
  /// the epoch barrier, in cell order — the stream stays deterministic at
  /// any lane count.
  void run_cell_epoch(int cell);

  /// Epoch barrier: genomes staged during the finished epoch become visible.
  void finish_epoch() { store_.flip(); }

  /// Publish the completed epoch's cell-stepped events (cell order) and the
  /// assembled EpochRecord. Call after finish_epoch, from one thread.
  void publish_epoch();

  /// Assemble the run outcome: fitness collection, best-cell argmin and the
  /// per-cell train-flops total, plus the caller-measured times and the
  /// (already merged) profiler.
  TrainOutcome make_outcome(double wall_s, double virtual_s,
                            common::Profiler profiler) const;

  /// Snapshot the whole grid for persistence (see core/checkpoint.hpp).
  Checkpoint checkpoint() const;

  /// Restore every cell from a checkpoint taken with a compatible
  /// configuration (same grid and architecture).
  void restore(const Checkpoint& snapshot);

  /// Calibration probe: per-cell-per-iteration work of this configuration
  /// (runs one throwaway iteration on a scratch cell).
  static WorkloadProbe measure_workload(const TrainingConfig& config,
                                        const data::Dataset& dataset);

  const TrainingConfig& config() const { return config_; }
  const CostModel& cost_model() const { return cost_model_; }
  evolve::Grid& grid() { return grid_; }
  GenomeStore& store() { return store_; }
  CellTrainer& cell(int cell_id) { return *cells_[cell_id]; }
  const CellTrainer& cell(int cell_id) const { return *cells_[cell_id]; }
  int cells() const { return static_cast<int>(cells_.size()); }

 private:
  TrainingConfig config_;
  const data::Dataset& dataset_;
  CostModel cost_model_;
  evolve::Grid grid_;
  GenomeStore store_;
  std::vector<ExecContext> contexts_;  ///< one per cell; addresses stable
  std::vector<std::unique_ptr<CellTrainer>> cells_;
  std::vector<std::unique_ptr<LocalCommManager>> comms_;

  // Observation state (inert while no observer is subscribed).
  EventBus* bus_ = nullptr;
  std::uint32_t epoch_ = 0;
  bool recording_ = false;             ///< records armed for this epoch
  /// Per-cell cumulative own charges, written concurrently by whichever lane
  /// steps the cell. One cache line per counter: packed doubles would put
  /// eight lanes' hot accumulators on one line and turn every charge into
  /// coherence traffic.
  std::vector<common::CacheAligned<double>> cell_virtual_s_;
  std::vector<CellEpochRecord> epoch_records_;  ///< one slot per cell
};

}  // namespace cellgan::core
