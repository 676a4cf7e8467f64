#include "core/cell_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/workload.hpp"

namespace cellgan::core {
namespace {

struct CellFixture : public ::testing::Test {
  void SetUp() override {
    config = TrainingConfig::tiny();
    config.grid_rows = config.grid_cols = 3;
    dataset = make_matched_dataset(config, 120, 5);
  }

  CellTrainer make_cell(const evolve::Grid& grid, int cell_id) {
    common::Rng master(config.seed);
    return CellTrainer(config, grid, cell_id, dataset, master.fork(cell_id),
                       context);
  }

  TrainingConfig config;
  data::Dataset dataset;
  ExecContext context;  // real-time: no cost model
};

TEST_F(CellFixture, StepWithEmptyInboxWorks) {
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> empty(grid.size());
  cell.step(empty);
  EXPECT_EQ(cell.iteration(), 1u);
  EXPECT_TRUE(std::isfinite(cell.g_fitness()));
  EXPECT_TRUE(std::isfinite(cell.d_fitness()));
  EXPECT_EQ(cell.last_update_bytes(), 0.0);
  EXPECT_GT(cell.last_train_flops(), 0.0);
}

TEST_F(CellFixture, ReadersAreTheCellsWhoseSourcesNameThisCell) {
  // Every policy on a 3x3 grid, over epochs with and without tournaments and
  // rotations: q is among p's readers exactly when p is among q's sources.
  evolve::Grid grid(3, 3);
  for (const auto policy :
       {evolve::ExchangePolicyKind::kCellular, evolve::ExchangePolicyKind::kLtfb,
        evolve::ExchangePolicyKind::kGap}) {
    config.exchange_policy = policy;
    config.exchange_every = 2;
    std::vector<CellTrainer> cells;
    for (int cell = 0; cell < grid.size(); ++cell) cells.push_back(make_cell(grid, cell));
    for (std::uint32_t epoch = 0; epoch < 6; ++epoch) {
      std::size_t reads = 0;
      for (int p = 0; p < grid.size(); ++p) {
        const auto readers = cells[p].exchange_readers(epoch);
        EXPECT_TRUE(std::is_sorted(readers.begin(), readers.end()));
        reads += readers.size();
        for (int q = 0; q < grid.size(); ++q) {
          const auto sources = cells[q].exchange_sources(epoch);
          const bool names_p = std::ranges::find(sources, p) != sources.end();
          const bool reads_p = std::ranges::find(readers, q) != readers.end();
          EXPECT_EQ(reads_p, names_p) << evolve::to_string(policy) << " epoch "
                                      << epoch << " cell " << p << " reader " << q;
        }
      }
      // A 3x3 neighborhood is four cells, so each cell has four readers
      // besides a tournament partner or a rotation donor.
      EXPECT_GE(reads, 9u * 4u);
    }
  }
}

TEST_F(CellFixture, ExportedGenomeCarriesState) {
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 4);
  std::vector<evolve::SharedGenome> empty(grid.size());
  cell.step(empty);
  const evolve::CellGenome genome = *cell.export_genome();
  EXPECT_EQ(genome.origin_cell, 4u);
  EXPECT_EQ(genome.iteration, 1u);
  EXPECT_EQ(genome.generator_params.size(),
            config.arch.generator_parameter_count());
  EXPECT_DOUBLE_EQ(genome.g_learning_rate, cell.g_learning_rate());
  EXPECT_DOUBLE_EQ(genome.g_fitness, cell.g_fitness());
}

TEST_F(CellFixture, NeighborGenomesAreInstalled) {
  evolve::Grid grid(3, 3);
  CellTrainer cell0 = make_cell(grid, 0);
  CellTrainer cell1 = make_cell(grid, 1);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell1.step(inbox);
  // Deliver cell 1's genome to cell 0 (1 is 0's east neighbor on 3x3).
  inbox[1] = cell1.export_genome();
  cell0.step(inbox);
  EXPECT_GT(cell0.last_update_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(cell0.last_update_bytes(),
                   static_cast<double>(inbox[1]->serialize().size()));
}

TEST_F(CellFixture, SelectionAdoptsStrictlyBetterNeighborCenter) {
  // Pins the CELLULAR policy's selection rule.
  config.exchange_policy = evolve::ExchangePolicyKind::kCellular;
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);

  // Craft a neighbor genome that claims (and plausibly has) far better
  // fitness; selection must adopt its learning rate bookkeeping.
  evolve::CellGenome fake = *cell.export_genome();
  fake.origin_cell = 1;
  fake.g_fitness = cell.g_fitness() - 10.0;  // strictly better
  fake.d_fitness = cell.d_fitness() - 10.0;
  fake.g_learning_rate = 0.0123;
  fake.d_learning_rate = 0.0456;
  inbox[1] = std::make_shared<const evolve::CellGenome>(fake);
  cell.step(inbox);
  // The adopted learning rates survive until mutation possibly nudges them
  // by ~1e-4; compare with loose tolerance.
  EXPECT_NEAR(cell.g_learning_rate(), 0.0123, 1e-3);
  EXPECT_NEAR(cell.d_learning_rate(), 0.0456, 1e-3);
}

TEST_F(CellFixture, WorseNeighborIsNotAdopted) {
  config.exchange_policy = evolve::ExchangePolicyKind::kCellular;
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);
  evolve::CellGenome fake = *cell.export_genome();
  fake.g_fitness = cell.g_fitness() + 100.0;  // much worse
  fake.d_fitness = cell.d_fitness() + 100.0;
  fake.g_learning_rate = 0.0999;
  inbox[1] = std::make_shared<const evolve::CellGenome>(fake);
  cell.step(inbox);
  EXPECT_NE(cell.g_learning_rate(), 0.0999);
}

TEST_F(CellFixture, FitnessStaysFiniteOverManySteps) {
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  for (int i = 0; i < 10; ++i) {
    cell.step(inbox);
    ASSERT_TRUE(std::isfinite(cell.g_fitness())) << "iteration " << i;
    ASSERT_TRUE(std::isfinite(cell.d_fitness())) << "iteration " << i;
    ASSERT_GT(cell.g_learning_rate(), 0.0);
  }
  EXPECT_EQ(cell.iteration(), 10u);
}

TEST_F(CellFixture, MixtureSizeTracksNeighborhood) {
  evolve::Grid big(3, 3);
  CellTrainer cell_big = make_cell(big, 0);
  EXPECT_EQ(cell_big.mixture().size(), 5u);

  evolve::Grid small(2, 2);
  config.grid_rows = config.grid_cols = 2;
  common::Rng master(config.seed);
  CellTrainer cell_small(config, small, 0, dataset, master.fork(0), context);
  EXPECT_EQ(cell_small.mixture().size(), 3u);
}

TEST_F(CellFixture, SampleFromMixtureShape) {
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);
  // No neighbor genome has arrived, so every member draws from the center.
  const evolve::CellGenome center = cell.center_genome();
  nn::Sequential generator = nn::borrowing_generator(config.arch);
  const std::vector<evolve::MixtureMember> members(
      cell.mixture().size(), {&generator, center.generator_params});
  common::Rng rng(3);
  const tensor::Tensor samples =
      evolve::sample_mixture(cell.mixture(), members, config.arch.latent_dim, 9, rng)
          .images;
  EXPECT_EQ(samples.rows(), 9u);
  EXPECT_EQ(samples.cols(), config.arch.image_dim);
  for (const float v : samples.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST_F(CellFixture, DynamicTopologyShrinkAndGrow) {
  evolve::Grid grid(3, 3);
  CellTrainer cell = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);
  // Shrink to a single neighbor.
  grid.set_neighbors(0, {4});
  cell.step(inbox);
  EXPECT_EQ(cell.mixture().size(), 2u);
  // Grow back to the default five-cell neighborhood.
  grid.reset_default_neighborhoods();
  cell.step(inbox);
  EXPECT_EQ(cell.mixture().size(), 5u);
  EXPECT_TRUE(std::isfinite(cell.g_fitness()));
}

TEST_F(CellFixture, DeterministicGivenSeedAndInbox) {
  evolve::Grid grid(3, 3);
  CellTrainer a = make_cell(grid, 0);
  CellTrainer b = make_cell(grid, 0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  for (int i = 0; i < 3; ++i) {
    a.step(inbox);
    b.step(inbox);
  }
  EXPECT_DOUBLE_EQ(a.g_fitness(), b.g_fitness());
  EXPECT_DOUBLE_EQ(a.d_fitness(), b.d_fitness());
  EXPECT_EQ(a.export_genome()->serialize(), b.export_genome()->serialize());
}

TEST_F(CellFixture, DifferentCellsDiverge) {
  evolve::Grid grid(3, 3);
  CellTrainer a = make_cell(grid, 0);
  CellTrainer b = make_cell(grid, 1);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  a.step(inbox);
  b.step(inbox);
  EXPECT_NE(a.export_genome()->serialize(), b.export_genome()->serialize());
}

TEST_F(CellFixture, ProfilerReceivesAllFourRoutines) {
  common::Profiler profiler;
  common::VirtualClock clock;
  ExecContext profiled;
  profiled.profiler = &profiler;
  profiled.clock = &clock;
  evolve::Grid grid(3, 3);
  common::Rng master(config.seed);
  CellTrainer cell(config, grid, 0, dataset, master.fork(0), profiled);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);
  EXPECT_TRUE(profiler.has(common::routine::kTrain));
  EXPECT_TRUE(profiler.has(common::routine::kUpdateGenomes));
  EXPECT_TRUE(profiler.has(common::routine::kMutate));
  EXPECT_GT(profiler.cost(common::routine::kTrain).wall_s, 0.0);
}

}  // namespace
}  // namespace cellgan::core
