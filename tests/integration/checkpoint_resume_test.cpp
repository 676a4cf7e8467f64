// Checkpoint/resume continuity: a run interrupted at iteration k and resumed
// from its checkpoint must carry over the exact center parameters, learning
// rates, fitness bookkeeping and mixture weights.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/checkpoint.hpp"
#include "core/distributed_trainer.hpp"
#include "core/workload.hpp"
#include "testsupport/kind_guard.hpp"
#include "testsupport/sequential.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

TrainingConfig test_config() {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 4;
  return config;
}

TEST(CheckpointResumeTest, SnapshotCapturesTrainedState) {
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 31);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();
  Checkpoint snapshot = trainer.checkpoint();
  EXPECT_EQ(snapshot.centers.size(), 4u);
  EXPECT_EQ(snapshot.iteration, 4u);
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(snapshot.centers[cell].origin_cell, static_cast<std::uint32_t>(cell));
    EXPECT_DOUBLE_EQ(snapshot.centers[cell].g_fitness,
                     trainer.cell(cell).g_fitness());
  }
}

TEST(CheckpointResumeTest, RestoreReproducesCentersExactly) {
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 32);
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    SCOPED_TRACE(tensor::to_string(kind));
    const testsupport::KindGuard guard(kind);
    auto original = testsupport::sequential_trainer(config, dataset);
    (void)original.run();
    const Checkpoint snapshot = original.checkpoint();

    auto resumed = testsupport::sequential_trainer(config, dataset);
    resumed.restore(snapshot);
    for (int cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(resumed.cell(cell).center_genome().generator_params,
                original.cell(cell).center_genome().generator_params);
      EXPECT_DOUBLE_EQ(resumed.cell(cell).g_learning_rate(),
                       original.cell(cell).g_learning_rate());
      EXPECT_EQ(resumed.cell(cell).iteration(), original.cell(cell).iteration());
      EXPECT_EQ(resumed.cell(cell).mixture().weights(),
                original.cell(cell).mixture().weights());
    }
  }
}

TEST(CheckpointResumeTest, ResumedTrainingContinuesFromState) {
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 33);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();
  const Checkpoint snapshot = trainer.checkpoint();

  auto resumed = testsupport::sequential_trainer(config, dataset);
  resumed.restore(snapshot);
  const TrainOutcome outcome = resumed.run();  // 4 more epochs
  EXPECT_EQ(resumed.cell(0).iteration(), 8u);
  for (const double f : outcome.g_fitnesses) EXPECT_TRUE(std::isfinite(f));
}

TEST(CheckpointResumeTest, DiskRoundtripThroughTrainer) {
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 34);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();

  const testsupport::TempDir tmp{"cellgan_resume"};
  const std::string path = tmp.file("resume.ckpt").string();
  ASSERT_TRUE(save_checkpoint(path, trainer.checkpoint()));
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());

  auto resumed = testsupport::sequential_trainer(config, dataset);
  resumed.restore(*loaded);
  EXPECT_EQ(resumed.cell(1).center_genome().generator_params,
            trainer.cell(1).center_genome().generator_params);
}

TEST(CheckpointResumeTest, GridMismatchAborts) {
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 35);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  Checkpoint wrong;
  wrong.config = config;
  wrong.centers.resize(9);  // 3x3 snapshot into a 2x2 trainer
  EXPECT_DEATH(trainer.restore(wrong), "precondition");
}

TEST(CheckpointResumeTest, DistributedResultsBecomeResumableCheckpoint) {
  // Train distributed, checkpoint the master's collected results, resume in
  // the sequential trainer: cross-mode persistence.
  const TrainingConfig config = test_config();
  const auto dataset = make_matched_dataset(config, 100, 37);
  const DistributedOutcome outcome = run_distributed(config, dataset);
  const Checkpoint snapshot =
      checkpoint_from_results(config, outcome.master.results);
  EXPECT_EQ(snapshot.centers.size(), 4u);
  EXPECT_EQ(snapshot.iteration, config.iterations);

  auto resumed = testsupport::sequential_trainer(config, dataset);
  resumed.restore(snapshot);
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(resumed.cell(cell).center_genome().generator_params,
              outcome.master.results[cell].center.generator_params);
  }
  const TrainOutcome continued = resumed.run();
  for (const double f : continued.g_fitnesses) EXPECT_TRUE(std::isfinite(f));
}

TEST(CheckpointResumeTest, MustangsLossModeSurvivesRoundtrip) {
  TrainingConfig config = test_config();
  config.loss_mode = LossMode::kMustangs;
  const auto dataset = make_matched_dataset(config, 100, 36);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();
  const Checkpoint snapshot = trainer.checkpoint();
  EXPECT_EQ(snapshot.config.loss_mode, LossMode::kMustangs);
  const Checkpoint loaded = Checkpoint::deserialize(snapshot.serialize());
  EXPECT_EQ(loaded.config.loss_mode, LossMode::kMustangs);
}

}  // namespace
}  // namespace cellgan::core
