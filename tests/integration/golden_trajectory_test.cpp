// Golden trajectories: pinned hashes of whole training runs.
//
// The parity suites compare backends with each other, so a change that moves
// every backend's bits the same way passes them. This suite pins, by FNV-1a
// of the raw doubles, the final per-cell generator and discriminator
// fitnesses and mixture weights of short tiny-arch 3x3 runs under each
// exchange policy and the conditional Wasserstein pathway, and requires the
// same hashes from the sequential trainer, the threads trainer at 1 and 4
// lanes and the in-process master/slave world. Every run uses the scalar
// kernels, the bit-exact reference loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/distributed_trainer.hpp"
#include "core/parallel_trainer.hpp"
#include "core/workload.hpp"
#include "testsupport/kind_guard.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

/// FNV-1a (64-bit) over the bytes of a run's doubles.
std::uint64_t fnv1a_64(std::span<const double> values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct RunHashes {
  std::uint64_t g_fitness = 0;
  std::uint64_t d_fitness = 0;
  std::uint64_t mixtures = 0;  ///< every cell's weights, in cell order
};

struct Golden {
  const char* name;
  TrainingConfig config;
  RunHashes expected;
};

TrainingConfig grid_config(evolve::ExchangePolicyKind policy, std::uint32_t every,
                           std::uint32_t iterations) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 3;
  config.grid_cols = 3;
  config.iterations = iterations;
  config.batches_per_iteration = 2;
  config.exchange_policy = policy;
  config.exchange_every = every;
  return config;
}

std::vector<Golden> goldens() {
  TrainingConfig conditional = grid_config(evolve::ExchangePolicyKind::kCellular, 1, 4);
  conditional.conditional = true;
  conditional.loss_mode = LossMode::kWasserstein;
  return {
      {"cellular", grid_config(evolve::ExchangePolicyKind::kCellular, 1, 4),
       {0xe7d1c7b3c7e9af68ull, 0x52837845de811165ull, 0xbe2a4ffc1f568f92ull}},
      {"ltfb", grid_config(evolve::ExchangePolicyKind::kLtfb, 2, 5),
       {0xd217adfb58ae03dbull, 0x957e68488c83963bull, 0xca8b0ca0934234cbull}},
      {"gap", grid_config(evolve::ExchangePolicyKind::kGap, 1, 4),
       {0x7568be83ef9c384cull, 0xe1ebc20cc1008d0full, 0xd40b5b6020620c99ull}},
      {"conditional-wasserstein", conditional,
       {0x7d7ceb6b346eadc0ull, 0x8c43afe4addba6d2ull, 0xbc078fcecd216b11ull}},
  };
}

RunHashes in_process_hashes(ParallelTrainer& trainer) {
  const TrainOutcome outcome = trainer.run();
  std::vector<double> mixtures;
  for (int cell = 0; cell < trainer.cells(); ++cell) {
    const auto& weights = trainer.cell(cell).mixture().weights();
    mixtures.insert(mixtures.end(), weights.begin(), weights.end());
  }
  return {fnv1a_64(outcome.g_fitnesses), fnv1a_64(outcome.d_fitnesses),
          fnv1a_64(mixtures)};
}

RunHashes distributed_hashes(const TrainingConfig& config, const data::Dataset& dataset) {
  const DistributedOutcome outcome = run_distributed(config, dataset);
  std::vector<double> g, d, mixtures;
  for (const auto& result : outcome.master.results) {
    g.push_back(result.center.g_fitness);
    d.push_back(result.center.d_fitness);
    mixtures.insert(mixtures.end(), result.mixture_weights.begin(),
                    result.mixture_weights.end());
  }
  return {fnv1a_64(g), fnv1a_64(d), fnv1a_64(mixtures)};
}

void expect_hashes(const RunHashes& expected, const RunHashes& actual,
                   const std::string& label) {
  EXPECT_EQ(expected.g_fitness, actual.g_fitness) << label << " g_fitnesses";
  EXPECT_EQ(expected.d_fitness, actual.d_fitness) << label << " d_fitnesses";
  EXPECT_EQ(expected.mixtures, actual.mixtures) << label << " mixture weights";
}

TEST(GoldenTrajectory, EveryBackendReproducesThePinnedRuns) {
  testsupport::KindGuard guard(tensor::KernelKind::kScalar);
  for (const Golden& golden : goldens()) {
    const data::Dataset dataset = make_matched_dataset(golden.config, 96, 11);
    const std::string name = golden.name;

    auto sequential = testsupport::sequential_trainer(golden.config, dataset);
    expect_hashes(golden.expected, in_process_hashes(sequential), name + " sequential");
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
      ParallelTrainer threads(golden.config, dataset, lanes);
      expect_hashes(golden.expected, in_process_hashes(threads),
                    name + " threads x" + std::to_string(lanes));
    }
    expect_hashes(golden.expected, distributed_hashes(golden.config, dataset),
                  name + " distributed");
  }
}

}  // namespace
}  // namespace cellgan::core
