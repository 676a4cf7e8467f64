// The acceptance gate of the multi-process deployment: a world of real
// TCP-connected ranks (one Runtime + TcpTransport per "process", threads
// standing in for processes so the suite needs no fork) must produce
// per-rank outcomes bit-identical to run_distributed's thread-per-rank
// simulation on the same seed — same fitnesses, same genomes, same virtual
// clocks. The 1x2 worlds have each slave read the other; the 2x2 tori have a
// diagonal cell that no cellular neighborhood names, so there a slave gets
// genomes it never reads (or, with readers-only delivery, none). The
// process-level twin of this check is the cellgan_launch --verify-parity
// smoke ctest.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/distributed_trainer.hpp"
#include "core/session.hpp"
#include "core/trainer_core.hpp"
#include "core/workload.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::core {
namespace {

TrainingConfig parity_config() {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 1;
  config.grid_cols = 2;
  config.iterations = 2;
  return config;
}

/// Run every rank of a TCP world on its own thread (each owns a private
/// Runtime + transport talking over loopback) and return the per-rank
/// outcomes.
std::vector<DistributedOutcome> run_tcp_world(const TrainingConfig& config,
                                              const data::Dataset& dataset,
                                              const CostModel& cost_model) {
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
      outcomes[static_cast<std::size_t>(rank)] =
          run_distributed_tcp(world, config, dataset, cost_model);
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
    const auto& over_tcp = master.results[cell];
    const auto& simulated = inproc.master.results[cell];
    EXPECT_EQ(over_tcp.cell_id, simulated.cell_id) << "cell " << cell;
    EXPECT_EQ(over_tcp.center.g_fitness, simulated.center.g_fitness)
        << "cell " << cell;
    EXPECT_EQ(over_tcp.center.d_fitness, simulated.center.d_fitness)
        << "cell " << cell;
    EXPECT_EQ(over_tcp.center.generator_params, simulated.center.generator_params)
        << "cell " << cell;
    EXPECT_EQ(over_tcp.center.discriminator_params,
              simulated.center.discriminator_params)
        << "cell " << cell;
    EXPECT_EQ(over_tcp.mixture_weights, simulated.mixture_weights)
        << "cell " << cell;
    EXPECT_EQ(over_tcp.virtual_time_s, simulated.virtual_time_s)
        << "cell " << cell;
  }
  EXPECT_EQ(master.best_cell, inproc.master.best_cell);
  EXPECT_EQ(master.node_names, inproc.master.node_names);
  EXPECT_EQ(tcp[0].virtual_makespan_s, inproc.virtual_makespan_s);
  // Every rank's virtual clock, read in its own process-equivalent.
  for (std::size_t rank = 1; rank < tcp.size(); ++rank) {
    EXPECT_EQ(tcp[rank].ranks[rank].virtual_time_s,
              inproc.ranks[rank].virtual_time_s)
        << "rank " << rank;
  }
}

TEST(TcpParityTest, RealTimeWorldMatchesInProcessBitForBit) {
  const TrainingConfig config = parity_config();
  const auto dataset = make_matched_dataset(config, 64, 21);
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    SCOPED_TRACE(tensor::to_string(kind));
    const testsupport::KindGuard guard(kind);
    const auto tcp = run_tcp_world(config, dataset, CostModel{});
    const auto inproc = run_distributed(config, dataset, CostModel{});
    expect_parity(tcp, inproc);
  }
}

TEST(TcpParityTest, CalibratedVirtualClocksMatchInProcessBitForBit) {
  // With the table3 cost model the virtual clocks move on every charge and
  // message; any divergence in jitter streams, message costs or split
  // accounting between the two deployments would show up here.
  const TrainingConfig config = parity_config();
  const auto dataset = make_matched_dataset(config, 64, 21);
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  CostProfile profile = CostProfile::table3();
  profile.reference_iterations = static_cast<double>(config.iterations);
  const CostModel cost_model = CostModel::calibrated(profile, probe);

  const auto tcp = run_tcp_world(config, dataset, cost_model);
  const auto inproc = run_distributed(config, dataset, cost_model);
  expect_parity(tcp, inproc);
  EXPECT_GT(tcp[0].virtual_makespan_s, 0.0);
}

/// A 2x2 torus under `policy`, exchanging every epoch: on four cells the
/// gap rotation reaches the diagonal donor at epoch 3 and ltfb pairings can
/// match diagonal cells, so the partner is read outside the neighborhood.
TrainingConfig torus_config(evolve::ExchangePolicyKind policy) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 2;
  config.grid_cols = 2;
  config.iterations = 4;
  config.exchange_policy = policy;
  config.exchange_every = 1;
  return config;
}

CostModel table3_model(const TrainingConfig& config, const data::Dataset& dataset) {
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  CostProfile profile = CostProfile::table3();
  profile.reference_iterations = static_cast<double>(config.iterations);
  return CostModel::calibrated(profile, probe);
}

TEST(TcpParityTest, TorusCellularMatchesInProcessUnderCalibratedClocks) {
  const TrainingConfig config = torus_config(evolve::ExchangePolicyKind::kCellular);
  const auto dataset = make_matched_dataset(config, 64, 22);
  const CostModel cost_model = table3_model(config, dataset);
  const auto tcp = run_tcp_world(config, dataset, cost_model);
  const auto inproc = run_distributed(config, dataset, cost_model);
  expect_parity(tcp, inproc);
  EXPECT_GT(tcp[0].virtual_makespan_s, 0.0);
}

TEST(TcpParityTest, TorusLtfbMatchesInProcessUnderCalibratedClocks) {
  const TrainingConfig config = torus_config(evolve::ExchangePolicyKind::kLtfb);
  const auto dataset = make_matched_dataset(config, 64, 23);
  const CostModel cost_model = table3_model(config, dataset);
  const auto tcp = run_tcp_world(config, dataset, cost_model);
  const auto inproc = run_distributed(config, dataset, cost_model);
  expect_parity(tcp, inproc);
}

TEST(TcpParityTest, TorusGapMatchesInProcessBitForBit) {
  const TrainingConfig config = torus_config(evolve::ExchangePolicyKind::kGap);
  const auto dataset = make_matched_dataset(config, 64, 24);
  const auto tcp = run_tcp_world(config, dataset, CostModel{});
  const auto inproc = run_distributed(config, dataset, CostModel{});
  expect_parity(tcp, inproc);
}

TEST(TcpParityTest, SessionBackendRequiresWorldEnvironment) {
  // Without a CELLGAN_* world this process cannot be a rank: prepare()
  // succeeds (the backend is registered) but run() raises a descriptive
  // error instead of aborting or hanging.
  RunSpec spec;
  spec.backend = Backend::kDistributedTcp;
  spec.config = parity_config();
  spec.dataset.samples = 32;
  Session session(spec);
  ASSERT_TRUE(session.prepare()) << session.error();
  try {
    (void)session.run();
    FAIL() << "expected a runtime error about the missing CELLGAN_* world";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CELLGAN_"), std::string::npos);
  }
}

}  // namespace
}  // namespace cellgan::core
