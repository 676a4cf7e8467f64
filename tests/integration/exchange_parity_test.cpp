// Cross-backend exchange-policy parity: every registered policy (cellular,
// ltfb, gap) must produce bit-identical per-cell results on all four
// backends — the one-lane sequential trainer, ParallelTrainer,
// run_distributed and the real-TCP world — at a fixed seed, because
// policies are pure functions of (seed, cell, epoch) and consume no RNG
// from the training streams. Also the
// wasserstein + conditional pathway end to end on every backend, and the
// checkpoint guard that refuses to resume under a different policy.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/distributed_trainer.hpp"
#include "core/parallel_trainer.hpp"
#include "core/workload.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

TrainingConfig policy_config(evolve::ExchangePolicyKind policy) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 1;
  config.grid_cols = 2;
  config.iterations = 3;
  config.exchange_policy = policy;
  config.exchange_every = 1;
  return config;
}

/// Run every rank of a TCP world on its own thread (the tcp_parity_test
/// harness) and return the per-rank outcomes.
std::vector<DistributedOutcome> run_tcp_world(const TrainingConfig& config,
                                              const data::Dataset& dataset) {
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
          run_distributed_tcp(world, config, dataset);
    });
  }
  for (auto& thread : threads) thread.join();
  return outcomes;
}

/// All four backends on one config/dataset; every per-cell center genome and
/// fitness must match the sequential reference bit for bit.
void expect_all_backends_bit_identical(const TrainingConfig& config,
                                       const data::Dataset& dataset,
                                       const char* label) {
  const std::size_t cells = config.grid_cells();
  auto seq = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome seq_outcome = seq.run();

  ParallelTrainer par(config, dataset, /*threads=*/2);
  const TrainOutcome par_outcome = par.run();
  ASSERT_EQ(par_outcome.g_fitnesses.size(), cells) << label;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    EXPECT_EQ(par_outcome.g_fitnesses[cell], seq_outcome.g_fitnesses[cell])
        << label << " threads cell " << cell;
    EXPECT_EQ(par.cell(static_cast<int>(cell)).center_genome().generator_params,
              seq.cell(static_cast<int>(cell)).center_genome().generator_params)
        << label << " threads cell " << cell;
  }

  const DistributedOutcome dist = run_distributed(config, dataset);
  ASSERT_EQ(dist.master.results.size(), cells) << label;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto& center = dist.master.results[cell].center;
    const auto& reference = seq.cell(static_cast<int>(cell)).center_genome();
    EXPECT_EQ(center.g_fitness, reference.g_fitness)
        << label << " distributed cell " << cell;
    EXPECT_EQ(center.d_fitness, reference.d_fitness)
        << label << " distributed cell " << cell;
    EXPECT_EQ(center.generator_params, reference.generator_params)
        << label << " distributed cell " << cell;
    EXPECT_EQ(center.discriminator_params, reference.discriminator_params)
        << label << " distributed cell " << cell;
  }

  const auto tcp = run_tcp_world(config, dataset);
  ASSERT_EQ(tcp[0].master.results.size(), cells) << label;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto& over_tcp = tcp[0].master.results[cell];
    const auto& simulated = dist.master.results[cell];
    EXPECT_EQ(over_tcp.center.g_fitness, simulated.center.g_fitness)
        << label << " tcp cell " << cell;
    EXPECT_EQ(over_tcp.center.generator_params,
              simulated.center.generator_params)
        << label << " tcp cell " << cell;
    EXPECT_EQ(over_tcp.center.discriminator_params,
              simulated.center.discriminator_params)
        << label << " tcp cell " << cell;
    EXPECT_EQ(over_tcp.mixture_weights, simulated.mixture_weights)
        << label << " tcp cell " << cell;
  }
}

TEST(ExchangeParityTest, CellularPolicyIsBitIdenticalAcrossBackends) {
  const auto config = policy_config(evolve::ExchangePolicyKind::kCellular);
  const auto dataset = make_matched_dataset(config, 64, 41);
  expect_all_backends_bit_identical(config, dataset, "cellular");
}

TEST(ExchangeParityTest, LtfbPolicyIsBitIdenticalAcrossBackends) {
  const auto config = policy_config(evolve::ExchangePolicyKind::kLtfb);
  const auto dataset = make_matched_dataset(config, 64, 42);
  expect_all_backends_bit_identical(config, dataset, "ltfb");
}

TEST(ExchangeParityTest, GapPolicyIsBitIdenticalAcrossBackends) {
  const auto config = policy_config(evolve::ExchangePolicyKind::kGap);
  const auto dataset = make_matched_dataset(config, 64, 43);
  expect_all_backends_bit_identical(config, dataset, "gap");
}

TEST(ExchangeParityTest, LtfbCadenceGreaterThanOneStillMatches) {
  auto config = policy_config(evolve::ExchangePolicyKind::kLtfb);
  config.iterations = 4;
  config.exchange_every = 2;  // tournaments at epochs 2 and 4 only
  const auto dataset = make_matched_dataset(config, 64, 44);
  expect_all_backends_bit_identical(config, dataset, "ltfb every=2");
}

TEST(ExchangeParityTest, WassersteinConditionalTrainsOnAllBackends) {
  // The critic loss plus class-conditional pathway, end to end: wasserstein
  // changes the loss/clip step, conditional widens latents and discriminator
  // inputs by the one-hot plane — both must stay deterministic across all
  // four backends like any other config.
  auto config = policy_config(evolve::ExchangePolicyKind::kCellular);
  config.loss_mode = LossMode::kWasserstein;
  config.conditional = 1;
  config.weight_clip = 0.05;
  const auto dataset = make_matched_dataset(config, 64, 45);
  expect_all_backends_bit_identical(config, dataset, "wgan conditional");

  // And the critic clip actually bites: every discriminator parameter of the
  // trained centers sits inside [-clip, clip].
  auto seq = testsupport::sequential_trainer(config, dataset);
  (void)seq.run();
  for (int cell = 0; cell < seq.cells(); ++cell) {
    for (const float w : seq.cell(cell).center_genome().discriminator_params) {
      EXPECT_LE(std::abs(w), static_cast<float>(config.weight_clip) + 1e-6f)
          << "cell " << cell;
    }
  }
}

TEST(ExchangeParityTest, WassersteinConditionalUnderLtfb) {
  // Policies compose with the loss/conditional axes.
  auto config = policy_config(evolve::ExchangePolicyKind::kLtfb);
  config.loss_mode = LossMode::kWasserstein;
  config.conditional = 1;
  const auto dataset = make_matched_dataset(config, 64, 46);
  expect_all_backends_bit_identical(config, dataset, "wgan ltfb");
}

TEST(ExchangeParityTest, CheckpointRefusesResumeUnderDifferentPolicy) {
  // A checkpoint written under one exchange policy must not silently resume
  // under another — the trajectories are incompatible. Named error, both
  // policies in the message.
  const auto cellular = policy_config(evolve::ExchangePolicyKind::kCellular);
  const auto dataset = make_matched_dataset(cellular, 64, 47);
  auto original = testsupport::sequential_trainer(cellular, dataset);
  (void)original.run();
  const Checkpoint snapshot = original.checkpoint();

  auto ltfb_trainer = testsupport::sequential_trainer(
      policy_config(evolve::ExchangePolicyKind::kLtfb), dataset);
  EXPECT_THROW(ltfb_trainer.restore(snapshot), CheckpointPolicyMismatchError);
  try {
    ltfb_trainer.restore(snapshot);
    FAIL() << "expected CheckpointPolicyMismatchError";
  } catch (const CheckpointPolicyMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cellular"), std::string::npos) << what;
    EXPECT_NE(what.find("ltfb"), std::string::npos) << what;
  }

  // Same policy resumes fine (and continues training).
  auto resumed = testsupport::sequential_trainer(cellular, dataset);
  EXPECT_NO_THROW(resumed.restore(snapshot));
  const TrainOutcome outcome = resumed.run();
  for (const double f : outcome.g_fitnesses) EXPECT_TRUE(std::isfinite(f));
}

}  // namespace
}  // namespace cellgan::core
