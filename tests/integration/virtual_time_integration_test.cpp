// End-to-end virtual-time runs: the calibrated cost model driven by the real
// trainers must reproduce the *structure* of the paper's results — positive
// speedup of distributed over single-core, management overhead at the
// master, gather time riding on real allgather messages.
#include <gtest/gtest.h>

#include "core/distributed_trainer.hpp"
#include "core/workload.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

struct VirtualRun {
  double seq_min = 0.0;
  double dist_min = 0.0;
  DistributedOutcome dist;
};

VirtualRun run_both(int side, int iterations, std::uint64_t seed) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = static_cast<std::uint32_t>(side);
  config.iterations = static_cast<std::uint32_t>(iterations);
  config.seed = seed;
  const auto dataset = make_matched_dataset(config, 100, seed);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  const CostModel cost = CostModel::calibrated(CostProfile::table3(), probe);

  VirtualRun run;
  auto seq = testsupport::sequential_trainer(config, dataset, cost);
  run.seq_min = seq.run().virtual_s / 60.0;
  run.dist = run_distributed(config, dataset, cost);
  run.dist_min = run.dist.virtual_makespan_s / 60.0;
  return run;
}

TEST(VirtualTimeIntegrationTest, DistributedBeatsSequential) {
  const VirtualRun run = run_both(2, 3, 1);
  EXPECT_GT(run.seq_min, 0.0);
  EXPECT_GT(run.dist_min, 0.0);
  EXPECT_GT(run.seq_min / run.dist_min, 1.5) << "no speedup from distribution";
}

TEST(VirtualTimeIntegrationTest, SpeedupGrowsWithGridSize) {
  const VirtualRun small = run_both(2, 2, 2);
  const VirtualRun big = run_both(3, 2, 2);
  const double speedup_small = small.seq_min / small.dist_min;
  const double speedup_big = big.seq_min / big.dist_min;
  EXPECT_GT(speedup_big, speedup_small);
}

TEST(VirtualTimeIntegrationTest, MasterChargesManagementPerSlave) {
  const VirtualRun run = run_both(2, 2, 3);
  const auto& master_profiler = run.dist.ranks[0].profiler;
  ASSERT_TRUE(master_profiler.has(common::routine::kManagement));
  const double mgmt_s = master_profiler.cost(common::routine::kManagement).virtual_s;
  // 4 slaves x 5.95 min x (2/200 iterations) = 14.28 virtual seconds.
  EXPECT_NEAR(mgmt_s, 4.0 * 5.95 * 60.0 * (2.0 / 200.0), 0.5);
}

TEST(VirtualTimeIntegrationTest, GatherTimeRidesOnRealMessages) {
  const VirtualRun run = run_both(2, 3, 4);
  for (std::size_t r = 1; r < run.dist.ranks.size(); ++r) {
    const double gather_vs =
        run.dist.ranks[r].profiler.cost(common::routine::kGather).virtual_s;
    EXPECT_GT(gather_vs, 0.0) << "rank " << r;
  }
}

TEST(VirtualTimeIntegrationTest, MakespanDominatedByMasterClock) {
  const VirtualRun run = run_both(2, 2, 5);
  double max_rank_time = 0.0;
  for (const auto& rank : run.dist.ranks) {
    max_rank_time = std::max(max_rank_time, rank.virtual_time_s);
  }
  EXPECT_NEAR(run.dist.virtual_makespan_s, max_rank_time, 1e-6);
}

TEST(VirtualTimeIntegrationTest, StragglerJitterMakesRunsVary) {
  // Two runs with different jitter seeds produce slightly different
  // distributed makespans — the source of the paper's +-std columns.
  const VirtualRun a = run_both(2, 3, 10);
  const VirtualRun b = run_both(2, 3, 11);
  EXPECT_NE(a.dist_min, b.dist_min);
  // ...but within a few percent of each other.
  EXPECT_NEAR(a.dist_min / b.dist_min, 1.0, 0.2);
}

TEST(VirtualTimeIntegrationTest, SequentialVirtualScalesWithIterations) {
  const VirtualRun two = run_both(2, 2, 6);
  const VirtualRun four = run_both(2, 4, 6);
  EXPECT_NEAR(four.seq_min / two.seq_min, 2.0, 0.35);
}

}  // namespace
}  // namespace cellgan::core
