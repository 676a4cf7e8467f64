// Data dieting (per-cell training subsamples) and loss-mode selection in the
// cell trainer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/cell_trainer.hpp"
#include "core/workload.hpp"

namespace cellgan::core {
namespace {

struct Fixture : public ::testing::Test {
  void SetUp() override {
    config = TrainingConfig::tiny();
    config.grid_rows = config.grid_cols = 3;
    dataset = make_matched_dataset(config, 200, 8);
  }

  CellTrainer make_cell(int cell_id = 0) {
    common::Rng master(config.seed);
    return CellTrainer(config, grid, cell_id, dataset, master.fork(cell_id),
                       context);
  }

  TrainingConfig config;
  evolve::Grid grid{3, 3};
  data::Dataset dataset;
  ExecContext context;
};

TEST_F(Fixture, DietingCellTrainsNormally) {
  config.data_dieting_fraction = 0.25;
  CellTrainer cell = make_cell();
  std::vector<evolve::SharedGenome> inbox(grid.size());
  for (int i = 0; i < 4; ++i) cell.step(inbox);
  EXPECT_TRUE(std::isfinite(cell.g_fitness()));
  EXPECT_EQ(cell.iteration(), 4u);
}

TEST_F(Fixture, DietingIsDeterministicPerCell) {
  config.data_dieting_fraction = 0.5;
  CellTrainer a = make_cell(0);
  CellTrainer b = make_cell(0);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  a.step(inbox);
  b.step(inbox);
  EXPECT_EQ(a.export_genome()->serialize(), b.export_genome()->serialize());
}

TEST_F(Fixture, DifferentCellsGetDifferentDiets) {
  // With dieting on, sibling cells train on different subsamples, so even
  // from identical initial conditions their trajectories diverge at least
  // as much as without dieting; just assert they are not identical.
  config.data_dieting_fraction = 0.3;
  CellTrainer a = make_cell(0);
  CellTrainer b = make_cell(1);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  a.step(inbox);
  b.step(inbox);
  EXPECT_NE(a.export_genome()->serialize(), b.export_genome()->serialize());
}

TEST_F(Fixture, TinyFractionClampsToBatchSize) {
  config.data_dieting_fraction = 1e-6;  // would be < one batch
  CellTrainer cell = make_cell();
  std::vector<evolve::SharedGenome> inbox(grid.size());
  cell.step(inbox);  // must not abort in the data loader
  EXPECT_TRUE(std::isfinite(cell.g_fitness()));
}

TEST_F(Fixture, ZeroFractionAborts) {
  config.data_dieting_fraction = 0.0;
  EXPECT_DEATH(make_cell(), "precondition");
}

TEST_F(Fixture, FixedLossModesStayFixed) {
  for (const auto& [mode, kind] :
       {std::pair{LossMode::kHeuristic, GanLossKind::kHeuristic},
        std::pair{LossMode::kMinimax, GanLossKind::kMinimax},
        std::pair{LossMode::kLeastSquares, GanLossKind::kLeastSquares}}) {
    config.loss_mode = mode;
    CellTrainer cell = make_cell();
    std::vector<evolve::SharedGenome> inbox(grid.size());
    for (int i = 0; i < 3; ++i) {
      cell.step(inbox);
      EXPECT_EQ(cell.current_loss(), kind) << to_string(mode);
    }
  }
}

TEST_F(Fixture, MustangsModeDrawsMultipleObjectives) {
  config.loss_mode = LossMode::kMustangs;
  CellTrainer cell = make_cell();
  std::vector<evolve::SharedGenome> inbox(grid.size());
  std::set<GanLossKind> seen;
  for (int i = 0; i < 24; ++i) {
    cell.step(inbox);
    seen.insert(cell.current_loss());
  }
  // 24 uniform draws over 3 kinds miss one with probability ~3e-5.
  EXPECT_GE(seen.size(), 2u);
}

TEST_F(Fixture, MustangsTrainingStaysFinite) {
  config.loss_mode = LossMode::kMustangs;
  config.batches_per_iteration = 2;
  CellTrainer cell = make_cell();
  std::vector<evolve::SharedGenome> inbox(grid.size());
  for (int i = 0; i < 8; ++i) {
    cell.step(inbox);
    ASSERT_TRUE(std::isfinite(cell.g_fitness())) << "iteration " << i;
    ASSERT_TRUE(std::isfinite(cell.d_fitness())) << "iteration " << i;
  }
}

TEST_F(Fixture, ConfigRoundtripKeepsNewKnobs) {
  config.loss_mode = LossMode::kLeastSquares;
  config.exchange_mode = ExchangeMode::kAsyncNeighbors;
  config.data_dieting_fraction = 0.42;
  const TrainingConfig loaded = TrainingConfig::deserialize(config.serialize());
  EXPECT_EQ(loaded, config);
}

TEST_F(Fixture, ModeNamesAreStable) {
  EXPECT_STREQ(to_string(ExchangeMode::kAllgather), "allgather");
  EXPECT_STREQ(to_string(ExchangeMode::kAsyncNeighbors), "async-neighbors");
  EXPECT_STREQ(to_string(LossMode::kMustangs), "mustangs");
}

}  // namespace
}  // namespace cellgan::core
