// The survivor-parity gate of the recovery protocol: a TCP world that runs
// with recovery enabled — rolling per-rank checkpoints, offer/plan rollback
// negotiation, restore-and-replay — must produce results bit-identical to
// run_distributed's undisturbed in-process simulation, both on a fresh run
// and when the world is forced to roll back and replay from checkpoints
// with one epoch of inter-rank skew. Threads stand in for processes (no
// fork, so the suite runs under ASan); the process-level twin with a real
// SIGKILL and a launcher respawn is the examples.launch_chaos_smoke ctest.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <thread>

#include "core/distributed_trainer.hpp"
#include "core/rank_state.hpp"
#include "core/workload.hpp"
#include "minimpi/errors.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

TrainingConfig recovery_config() {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 1;
  config.grid_cols = 2;
  config.iterations = 4;
  return config;
}

/// Run every rank of a TCP world on its own thread with the given recovery
/// policy and return the per-rank outcomes (the tcp_parity_test harness,
/// plus recovery).
std::vector<DistributedOutcome> run_recovering_world(
    const TrainingConfig& config, const data::Dataset& dataset,
    const RecoveryOptions& recovery) {
  const int world_size = static_cast<int>(config.grid_cells()) + 1;
  std::vector<DistributedOutcome> outcomes(static_cast<std::size_t>(world_size));
  std::promise<std::string> endpoint_promise;
  std::shared_future<std::string> endpoint = endpoint_promise.get_future().share();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      TcpWorld world;
      world.world_size = world_size;
      world.rank = rank;
      world.timeout_s = 60.0;
      if (rank == 0) {
        world.rendezvous = "127.0.0.1:0";
        world.on_listening = [&endpoint_promise](const std::string& actual) {
          endpoint_promise.set_value(actual);
        };
      } else {
        world.rendezvous = endpoint.get();
      }
      outcomes[static_cast<std::size_t>(rank)] = run_distributed_tcp(
          world, config, dataset, CostModel{}, Master::Options{}, recovery);
    });
  }
  for (auto& thread : threads) thread.join();
  return outcomes;
}

void expect_parity(const std::vector<DistributedOutcome>& tcp,
                   const DistributedOutcome& inproc) {
  const auto& master = tcp[0].master;
  ASSERT_EQ(master.results.size(), inproc.master.results.size());
  for (std::size_t cell = 0; cell < master.results.size(); ++cell) {
    const auto& recovered = master.results[cell];
    const auto& simulated = inproc.master.results[cell];
    EXPECT_EQ(recovered.center.g_fitness, simulated.center.g_fitness)
        << "cell " << cell;
    EXPECT_EQ(recovered.center.d_fitness, simulated.center.d_fitness)
        << "cell " << cell;
    EXPECT_EQ(recovered.center.generator_params,
              simulated.center.generator_params)
        << "cell " << cell;
    EXPECT_EQ(recovered.mixture_weights, simulated.mixture_weights)
        << "cell " << cell;
    EXPECT_EQ(recovered.virtual_time_s, simulated.virtual_time_s)
        << "cell " << cell;
  }
  EXPECT_EQ(master.best_cell, inproc.master.best_cell);
  EXPECT_EQ(tcp[0].virtual_makespan_s, inproc.virtual_makespan_s);
  for (std::size_t rank = 1; rank < tcp.size(); ++rank) {
    EXPECT_EQ(tcp[rank].ranks[rank].virtual_time_s,
              inproc.ranks[rank].virtual_time_s)
        << "rank " << rank;
  }
}

TEST(RankDeathTest, RecoveryEnabledRunKeepsParityAndRollsCheckpoints) {
  const TrainingConfig config = recovery_config();
  const auto dataset = make_matched_dataset(config, 64, 21);
  testsupport::TempDir dir("rank-death");

  RecoveryOptions recovery;
  recovery.enabled = true;
  recovery.state_dir = dir.path().string();

  const auto tcp = run_recovering_world(config, dataset, recovery);
  const auto inproc = run_distributed(config, dataset, CostModel{});
  expect_parity(tcp, inproc);

  // Every slave left a latest checkpoint at the final epoch, ready for a
  // future rejoin.
  for (int rank = 1; rank <= 2; ++rank) {
    const auto latest =
        load_latest_rank_checkpoint(recovery.state_dir, rank);
    ASSERT_TRUE(latest.has_value()) << "rank " << rank;
    EXPECT_EQ(latest->epoch, config.iterations) << "rank " << rank;
  }
}

TEST(RankDeathTest, RejoinFromRolledBackCheckpointReplaysBitIdentically) {
  // The rejoin path end to end, with checkpoint skew: rank 1's newest
  // checkpoint is one epoch behind rank 2's (exactly the skew the lockstep
  // allgather bounds), so the negotiation must settle on the older epoch
  // and rank 2 must restore from its non-latest slot. The replayed world's
  // results must be bit-identical to an undisturbed run.
  const TrainingConfig config = recovery_config();
  const auto dataset = make_matched_dataset(config, 64, 21);
  testsupport::TempDir dir("rank-death-rejoin");

  RecoveryOptions recovery;
  recovery.enabled = true;
  recovery.state_dir = dir.path().string();

  // Seed the state directory with the rolling checkpoints of a full run.
  (void)run_recovering_world(config, dataset, recovery);

  // Knock rank 1 back one epoch: drop its latest slot (epoch N lives in
  // slot N % 2), leaving epoch N-1 as its best offer.
  const std::string latest_slot = rank_checkpoint_path(
      recovery.state_dir, /*rank=*/1, static_cast<int>(config.iterations % 2));
  ASSERT_TRUE(std::filesystem::remove(latest_slot)) << latest_slot;
  ASSERT_EQ(load_latest_rank_checkpoint(recovery.state_dir, 1)->epoch,
            config.iterations - 1);

  // A fresh world over the same state directory is exactly what the
  // launcher's respawned generation looks like: everyone rejoins at the
  // rendezvous, offers their newest epoch (N-1 vs N), rolls back to the
  // minimum and replays the tail.
  const auto rejoined = run_recovering_world(config, dataset, recovery);
  const auto inproc = run_distributed(config, dataset, CostModel{});
  expect_parity(rejoined, inproc);
}

TEST(RankDeathTest, RecoveryDisabledUnderAsyncExchangeStillCompletes) {
  // kAsyncNeighbors has no lockstep to bound checkpoint skew, so recovery
  // is refused (with a warning) rather than offering a rollback that could
  // break parity — and the run itself proceeds untouched.
  TrainingConfig config = recovery_config();
  config.exchange_mode = ExchangeMode::kAsyncNeighbors;
  const auto dataset = make_matched_dataset(config, 64, 21);
  testsupport::TempDir dir("rank-death-async");

  RecoveryOptions recovery;
  recovery.enabled = true;
  recovery.state_dir = dir.path().string();

  const auto tcp = run_recovering_world(config, dataset, recovery);
  EXPECT_EQ(tcp[0].master.results.size(), 2u);
  // No lockstep, no rolling checkpoints.
  EXPECT_FALSE(load_latest_rank_checkpoint(recovery.state_dir, 1).has_value());
}

}  // namespace
}  // namespace cellgan::core
