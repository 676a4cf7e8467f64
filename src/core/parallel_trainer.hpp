// The in-process trainer: the whole grid in one process, cells stepped on
// worker lanes. It serves both in-process backends:
//
//   * kSequential — one lane, ExecMode::SingleCore: the "single core" column
//     of Table III. Every cell bills one virtual clock, so costs accumulate
//     serially, and the cost model applies the working-set memory penalty.
//   * kThreads — `threads` lanes, ExecMode::MultiThread: the "p cores" view.
//
// Cells are independent within an epoch (Section III.A's two-level model:
// threads within a rank, messages across ranks), so each epoch's cell steps
// run concurrently on a common::ThreadPool. Lanes are the only executor in
// the process: tensor ops run on the lane that calls them. Determinism is
// preserved by construction, not by luck:
//
//   * the epoch-staged GenomeStore guarantees every cell reads exactly its
//     neighbors' previous-epoch genomes, whatever the interleaving;
//   * each cell keeps its private forked rng stream, so the schedule never
//     perturbs any cell's random sequence;
//   * cells are statically partitioned into balanced contiguous lanes, so
//     the lane a cell bills its virtual time to depends only on the
//     requested thread count, never on scheduling.
//
// Results (fitness trajectories, flops) are therefore bit-identical across
// lane counts and execution modes on the same seed. Each lane owns a
// VirtualClock and a Profiler: a lane's clock advances by the serial sum of
// its own cells' charges, the epoch barrier synchronizes all lanes to the
// slowest (wait_until the max, a no-op with one lane), and the run's virtual
// makespan is that max. Profilers merge at the end, keeping the per-charge
// hot path on uncontended per-lane instances.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer_core.hpp"

namespace cellgan::core {

class ParallelTrainer final {
 public:
  /// Every lane reads `dataset`, one shared store. `threads` is the number of
  /// worker lanes (clamped to [1, cells]). `mode` selects the cost model's
  /// view: the sequential backend passes SingleCore with one lane.
  ParallelTrainer(const TrainingConfig& config, const datastore::SampleStore& dataset,
                  std::size_t threads, const CostModel& cost_model = {},
                  ExecMode mode = ExecMode::MultiThread);

  ParallelTrainer(const ParallelTrainer&) = delete;
  ParallelTrainer& operator=(const ParallelTrainer&) = delete;

  /// Run the configured number of iterations over every cell.
  TrainOutcome run();

  /// Subscribe the run to an event bus (epoch-started / cell-stepped /
  /// epoch-completed). Call before run(); the bus must outlive the trainer.
  void set_observers(EventBus* bus) { core_.set_observers(bus); }

  /// Access to trained cells (valid after run()) for sampling / inspection.
  evolve::Grid& grid() { return core_.grid(); }
  CellTrainer& cell(int cell_id) { return core_.cell(cell_id); }
  int cells() const { return core_.cells(); }

  Checkpoint checkpoint() { return core_.checkpoint(); }

  /// Restore every cell from a compatible checkpoint; a subsequent run()
  /// trains `config.iterations` further epochs.
  void restore(const Checkpoint& snapshot) { core_.restore(snapshot); }

  /// Worker lanes actually used (== min(threads, cells)).
  std::size_t lanes() const { return lanes_.size(); }

  static WorkloadProbe measure_workload(const TrainingConfig& config,
                                        const datastore::SampleStore& dataset) {
    return TrainerCore::measure_workload(config, dataset);
  }

 private:
  /// Per-worker accounting lane: cells [lane_begin_[l], lane_begin_[l+1])
  /// bill their virtual time and routine costs here. Cache-line aligned so
  /// one lane's clock/profiler words never share a line with a neighbor's
  /// (each charge is a read-modify-write on the owning worker thread; see
  /// common/aligned.hpp).
  struct alignas(common::kCacheLineBytes) Lane {
    common::VirtualClock clock;
    common::Profiler profiler;
    common::Rng jitter_rng;
    explicit Lane(std::uint64_t seed) : jitter_rng(seed) {}
  };

  std::size_t lane_of(std::size_t cell) const;

  TrainerCore core_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::size_t> lane_begin_;  ///< lanes()+1 partition offsets
  common::ThreadPool pool_;
};

}  // namespace cellgan::core
