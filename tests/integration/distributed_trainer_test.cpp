#include "core/distributed_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/slave.hpp"
#include "core/workload.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

TrainingConfig small_config(int side, int iterations) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = static_cast<std::uint32_t>(side);
  config.iterations = static_cast<std::uint32_t>(iterations);
  return config;
}

TEST(DistributedTrainerTest, CompletesAndCollectsAllCells) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 1);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  ASSERT_EQ(outcome.master.results.size(), 4u);
  for (std::uint32_t cell = 0; cell < 4; ++cell) {
    const auto& result = outcome.master.results[cell];
    EXPECT_EQ(result.cell_id, cell);
    EXPECT_EQ(result.center.iteration, 3u);
    EXPECT_TRUE(std::isfinite(result.center.g_fitness));
    EXPECT_EQ(result.center.generator_params.size(),
              config.arch.generator_parameter_count());
  }
  EXPECT_EQ(outcome.ranks.size(), 5u);  // master + 4 slaves
}

TEST(DistributedTrainerTest, NodeNamesReported) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 2);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  ASSERT_EQ(outcome.master.node_names.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(outcome.master.node_names[s], "node-" + std::to_string(s + 1));
  }
}

TEST(DistributedTrainerTest, BestCellIsArgmin) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 3);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  const double best = outcome.master.results[outcome.master.best_cell].center.g_fitness;
  for (const auto& result : outcome.master.results) {
    EXPECT_GE(result.center.g_fitness, best);
  }
}

TEST(DistributedTrainerTest, MixtureWeightsAreSimplex) {
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 4);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  for (const auto& result : outcome.master.results) {
    ASSERT_EQ(result.mixture_weights.size(), 3u);  // 2x2 torus: s = 3
    double total = 0.0;
    for (const double w : result.mixture_weights) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DistributedTrainerTest, SlaveProfilersCoverRoutines) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 5);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  for (std::size_t r = 1; r < outcome.ranks.size(); ++r) {
    const auto& profiler = outcome.ranks[r].profiler;
    EXPECT_TRUE(profiler.has(common::routine::kTrain)) << "rank " << r;
    EXPECT_TRUE(profiler.has(common::routine::kGather)) << "rank " << r;
    EXPECT_EQ(profiler.cost(common::routine::kTrain).calls, 2u);
  }
  // Master carries the management bucket.
  EXPECT_TRUE(outcome.ranks[0].profiler.has(common::routine::kManagement));
}

TEST(DistributedTrainerTest, ThreeByThreeGridWorks) {
  const TrainingConfig config = small_config(3, 2);
  const auto dataset = make_matched_dataset(config, 100, 6);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  EXPECT_EQ(outcome.master.results.size(), 9u);
  for (const auto& result : outcome.master.results) {
    EXPECT_EQ(result.mixture_weights.size(), 5u);  // full five-cell hood
  }
}

TEST(DistributedTrainerTest, HeartbeatObservesCycles) {
  // Each slave holds its first epoch until it has answered a status request.
  // The monitor sends requests only inside a polling cycle and counts every
  // cycle it starts, so at least one completes however fast the run is:
  // nothing depends on the run outlasting a heartbeat interval.
  const TrainingConfig config = small_config(2, 4);
  const auto dataset = make_matched_dataset(config, 100, 7);
  const CostModel cost_model;
  MasterOutcome outcome;
  minimpi::Runtime runtime(static_cast<int>(config.grid_cells()) + 1);
  runtime.run([&](minimpi::Comm& world) {
    auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
    auto global = world.split(0, world.rank());
    if (world.rank() == 0) {
      Master::Options options;
      options.heartbeat.interval_s = 0.002;
      options.heartbeat.reply_timeout_s = 0.05;
      Master master(world, *global, config, cost_model, options);
      outcome = master.run();
    } else {
      const Slave* self = nullptr;
      Slave::Options options;
      options.on_iteration = [&self](std::uint32_t iteration) {
        while (iteration == 0 && self->status_replies() == 0) {
          std::this_thread::yield();
        }
      };
      Slave slave(world, *local, *global, dataset, cost_model, std::move(options));
      self = &slave;
      (void)slave.run();
    }
  });
  EXPECT_EQ(outcome.results.size(), 4u);
  EXPECT_GE(outcome.heartbeat_cycles, 1u);
}

TEST(DistributedTrainerTest, HeartbeatDisabledStillCompletes) {
  const TrainingConfig config = small_config(2, 2);
  const auto dataset = make_matched_dataset(config, 100, 8);
  Master::Options options;
  options.enable_heartbeat = false;
  const DistributedOutcome outcome =
      run_distributed(config, dataset, CostModel{}, options);
  EXPECT_EQ(outcome.master.results.size(), 4u);
  EXPECT_EQ(outcome.master.heartbeat_cycles, 0u);
}

TEST(DistributedTrainerTest, ResultsMatchSequentialStructure) {
  // Same config through both harnesses: identical genome sizes and finite
  // fitness everywhere (bit-identical trajectories are the cross-backend
  // parity suites' job).
  const TrainingConfig config = small_config(2, 3);
  const auto dataset = make_matched_dataset(config, 100, 9);
  auto seq = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome seq_outcome = seq.run();
  const DistributedOutcome dist_outcome = run_distributed(config, dataset);
  ASSERT_EQ(seq_outcome.g_fitnesses.size(), dist_outcome.master.results.size());
  for (std::size_t cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(seq.cell(static_cast<int>(cell)).center_genome().generator_params.size(),
              dist_outcome.master.results[cell].center.generator_params.size());
  }
}

}  // namespace
}  // namespace cellgan::core
