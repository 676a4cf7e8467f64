// The in-process trainer. Its one-lane SingleCore case is the sequential
// backend (SingleLaneTrainerTest): every cell on one lane, virtual time
// accumulated serially. More lanes must be a pure scheduling change —
// bit-identical fitness trajectories across lane counts and against the
// sequential case on the same seed (the double-buffered exchange plus
// per-cell rng streams make this a hard guarantee, not a tolerance),
// matching per-routine virtual totals and flops counts, and a virtual-time
// makespan that shrinks with lanes (the "p cores" column).
#include "core/parallel_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/workload.hpp"
#include "testsupport/kind_guard.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

TrainingConfig small_config(int side, int iterations) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = static_cast<std::uint32_t>(side);
  config.iterations = static_cast<std::uint32_t>(iterations);
  return config;
}

void expect_bit_identical(const TrainOutcome& a, const TrainOutcome& b,
                          const char* label) {
  ASSERT_EQ(a.g_fitnesses.size(), b.g_fitnesses.size()) << label;
  for (std::size_t i = 0; i < a.g_fitnesses.size(); ++i) {
    EXPECT_EQ(a.g_fitnesses[i], b.g_fitnesses[i]) << label << " cell " << i;
    EXPECT_EQ(a.d_fitnesses[i], b.d_fitnesses[i]) << label << " cell " << i;
  }
  EXPECT_EQ(a.best_cell, b.best_cell) << label;
  // Flops totals are integer-valued doubles, so sums are exact in any order.
  EXPECT_EQ(a.train_flops, b.train_flops) << label;
}

TEST(ParallelTrainerTest, DeterministicAcrossThreadCounts2x2) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 21);
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    SCOPED_TRACE(tensor::to_string(kind));
    const testsupport::KindGuard guard(kind);
    auto seq = testsupport::sequential_trainer(config, dataset);
    const TrainOutcome reference = seq.run();
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ParallelTrainer par(config, dataset, threads);
      const TrainOutcome outcome = par.run();
      expect_bit_identical(reference, outcome,
                           threads == 1   ? "1 thread"
                           : threads == 2 ? "2 threads"
                                          : "4 threads");
    }
  }
}

TEST(ParallelTrainerTest, DeterministicAcrossThreadCounts3x3) {
  const TrainingConfig config = small_config(3, 2);
  const auto dataset = make_matched_dataset(config, 100, 22);
  auto seq = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome reference = seq.run();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelTrainer par(config, dataset, threads);
    const TrainOutcome outcome = par.run();
    expect_bit_identical(reference, outcome, "3x3 grid");
  }
}

TEST(ParallelTrainerTest, RunsAllCellsAllIterations) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 23);
  ParallelTrainer trainer(config, dataset, 4);
  const TrainOutcome outcome = trainer.run();
  EXPECT_EQ(outcome.g_fitnesses.size(), 4u);
  for (int cell = 0; cell < trainer.cells(); ++cell) {
    EXPECT_EQ(trainer.cell(cell).iteration(), 3u);
    EXPECT_TRUE(std::isfinite(outcome.g_fitnesses[cell]));
  }
  EXPECT_GT(outcome.wall_s, 0.0);
  EXPECT_GT(outcome.train_flops, 0.0);
}

TEST(ParallelTrainerTest, LanesClampToCellCount) {
  const TrainingConfig config = small_config(2, 1);
  const auto dataset = make_matched_dataset(config, 100, 24);
  ParallelTrainer trainer(config, dataset, 16);
  EXPECT_EQ(trainer.lanes(), 4u);  // 2x2 grid: one lane per cell at most
  const TrainOutcome outcome = trainer.run();
  EXPECT_EQ(outcome.g_fitnesses.size(), 4u);
}

TEST(ParallelTrainerTest, ProfilerTotalsMatchSequential) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 25);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  const CostModel cost = CostModel::calibrated(CostProfile::table3(), probe);
  auto seq = testsupport::sequential_trainer(config, dataset, cost);
  ParallelTrainer par(config, dataset, 4, cost);
  const TrainOutcome seq_outcome = seq.run();
  const TrainOutcome par_outcome = par.run();
  for (const char* routine :
       {common::routine::kTrain, common::routine::kUpdateGenomes,
        common::routine::kMutate, common::routine::kGather}) {
    const double seq_vs = seq_outcome.profiler.cost(routine).virtual_s;
    const double par_vs = par_outcome.profiler.cost(routine).virtual_s;
    // Same charges summed in a different order: equal up to rounding.
    EXPECT_NEAR(par_vs, seq_vs, 1e-9 * std::max(1.0, seq_vs)) << routine;
    EXPECT_EQ(seq_outcome.profiler.cost(routine).calls,
              par_outcome.profiler.cost(routine).calls)
        << routine;
  }
  EXPECT_EQ(seq_outcome.train_flops, par_outcome.train_flops);
}

TEST(ParallelTrainerTest, VirtualMakespanShrinksWithLanes) {
  // The "p cores" effect in virtual time: with the grid split across lanes,
  // the per-epoch makespan is the max over lanes, so 4 lanes on a 2x2 grid
  // should approach a 4x virtual speedup over the serial sum.
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 26);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  const CostModel cost = CostModel::calibrated(CostProfile::table3(), probe);
  auto seq = testsupport::sequential_trainer(config, dataset, cost);
  ParallelTrainer par(config, dataset, 4, cost);
  const double seq_virtual = seq.run().virtual_s;
  const double par_virtual = par.run().virtual_s;
  EXPECT_GT(par_virtual, 0.0);
  EXPECT_GT(seq_virtual / par_virtual, 2.0) << "no virtual speedup from lanes";
  EXPECT_LE(par_virtual, seq_virtual);
}

TEST(ParallelTrainerTest, CheckpointInteropWithSequential) {
  // A checkpoint taken from the sequential trainer resumes identically under
  // the parallel trainer (and vice versa): the core machinery is shared.
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 27);
  auto original = testsupport::sequential_trainer(config, dataset);
  (void)original.run();
  const Checkpoint snapshot = original.checkpoint();

  auto seq_resumed = testsupport::sequential_trainer(config, dataset);
  seq_resumed.restore(snapshot);
  ParallelTrainer par_resumed(config, dataset, 2);
  par_resumed.restore(snapshot);
  const TrainOutcome seq_outcome = seq_resumed.run();
  const TrainOutcome par_outcome = par_resumed.run();
  expect_bit_identical(seq_outcome, par_outcome, "resumed run");
  EXPECT_EQ(par_resumed.cell(0).iteration(), 4u);
}

TEST(ParallelTrainerTest, SelectableBehindCommonInterface) {
  const TrainingConfig config = small_config(2, 1);
  const auto dataset = make_matched_dataset(config, 100, 28);
  for (const std::size_t threads : {1u, 2u}) {
    const ExecMode mode = threads > 1 ? ExecMode::MultiThread : ExecMode::SingleCore;
    auto trainer = std::make_unique<ParallelTrainer>(config, dataset, threads,
                                                     CostModel{}, mode);
    const TrainOutcome outcome = trainer->run();
    EXPECT_EQ(outcome.g_fitnesses.size(), 4u);
    EXPECT_EQ(trainer->cells(), 4);
  }
}

// --- the one-lane SingleCore case (the sequential backend) -------------------

TEST(SingleLaneTrainerTest, RunsAllCellsAllIterations) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 1);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  EXPECT_EQ(trainer.lanes(), 1u);
  const TrainOutcome outcome = trainer.run();
  EXPECT_EQ(outcome.g_fitnesses.size(), 4u);
  EXPECT_EQ(outcome.d_fitnesses.size(), 4u);
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(trainer.cell(cell).iteration(), 3u);
    EXPECT_TRUE(std::isfinite(outcome.g_fitnesses[cell]));
  }
  EXPECT_GT(outcome.wall_s, 0.0);
}

TEST(SingleLaneTrainerTest, BestCellIsArgminGeneratorFitness) {
  const TrainingConfig config = small_config(3, 2);
  const auto dataset = make_matched_dataset(config, 100, 2);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome outcome = trainer.run();
  for (const double f : outcome.g_fitnesses) {
    EXPECT_GE(f, outcome.g_fitnesses[outcome.best_cell]);
  }
}

TEST(SingleLaneTrainerTest, DeterministicAcrossRuns) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 3);
  auto a = testsupport::sequential_trainer(config, dataset);
  auto b = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome oa = a.run();
  const TrainOutcome ob = b.run();
  ASSERT_EQ(oa.g_fitnesses.size(), ob.g_fitnesses.size());
  for (std::size_t i = 0; i < oa.g_fitnesses.size(); ++i) {
    EXPECT_DOUBLE_EQ(oa.g_fitnesses[i], ob.g_fitnesses[i]);
    EXPECT_DOUBLE_EQ(oa.d_fitnesses[i], ob.d_fitnesses[i]);
  }
  EXPECT_EQ(oa.best_cell, ob.best_cell);
}

TEST(SingleLaneTrainerTest, SeedChangesOutcome) {
  TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 4);
  auto a = testsupport::sequential_trainer(config, dataset);
  config.seed = 4343;
  auto b = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome oa = a.run();
  const TrainOutcome ob = b.run();
  bool any_different = false;
  for (std::size_t i = 0; i < oa.g_fitnesses.size(); ++i) {
    if (oa.g_fitnesses[i] != ob.g_fitnesses[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(SingleLaneTrainerTest, ProfilerCoversAllRoutines) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 5);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome outcome = trainer.run();
  for (const char* routine :
       {common::routine::kTrain, common::routine::kUpdateGenomes,
        common::routine::kMutate, common::routine::kGather}) {
    EXPECT_TRUE(outcome.profiler.has(routine)) << routine;
  }
  // train/update/mutate are called once per cell per iteration.
  EXPECT_EQ(outcome.profiler.cost(common::routine::kTrain).calls, 4u * 2u);
}

TEST(SingleLaneTrainerTest, NeighborGenomesFlowBetweenCells) {
  // After >= 2 iterations, every cell must have installed neighbor bytes.
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 6);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();
  for (int cell = 0; cell < trainer.cells(); ++cell) {
    EXPECT_GT(trainer.cell(cell).last_update_bytes(), 0.0) << "cell " << cell;
  }
}

TEST(SingleLaneTrainerTest, VirtualTimeZeroWithoutCostModel) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 7);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome outcome = trainer.run();
  EXPECT_DOUBLE_EQ(outcome.virtual_s, 0.0);
}

TEST(SingleLaneTrainerTest, WorkloadProbeMeasuresPositiveWork) {
  const TrainingConfig config = small_config(3, 2);
  const auto dataset = make_matched_dataset(config, 100, 8);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  EXPECT_GT(probe.train_flops, 0.0);
  EXPECT_GT(probe.update_bytes, 0.0);
  EXPECT_GT(probe.genome_bytes, 0.0);
  // Update bytes = 4 neighbor genomes on a 3x3 grid.
  EXPECT_NEAR(probe.update_bytes, 4.0 * probe.genome_bytes, 1.0);
}

TEST(SingleLaneTrainerTest, CalibratedRunAccumulatesVirtualTime) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 9);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  const CostModel cost = CostModel::calibrated(CostProfile::table3(), probe);
  auto trainer = testsupport::sequential_trainer(config, dataset, cost);
  const TrainOutcome outcome = trainer.run();
  EXPECT_GT(outcome.virtual_s, 0.0);
  // Virtual time must dwarf anything wall-clock at paper calibration.
  EXPECT_GT(outcome.virtual_s, outcome.wall_s);
  EXPECT_GT(outcome.profiler.cost(common::routine::kTrain).virtual_s, 0.0);
  EXPECT_GT(outcome.profiler.cost(common::routine::kGather).virtual_s, 0.0);
  // One lane: every cell's charges accumulate serially on one clock, so the
  // makespan is the whole grid's routine total.
  const double serial_sum = outcome.profiler.total_virtual_s();
  EXPECT_NEAR(outcome.virtual_s, serial_sum, 1e-9 * serial_sum);
}

}  // namespace
}  // namespace cellgan::core
