// Whole-pipeline test: train on the synthetic dataset, evaluate the returned
// generative model with the metrics stack — the full path a user of the
// library walks through, at miniature scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/checkpoint_sampler.hpp"
#include "core/workload.hpp"
#include "data/pgm.hpp"
#include "metrics/fid.hpp"
#include "metrics/inception_score.hpp"
#include "metrics/mode_coverage.hpp"
#include "testsupport/sequential.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

TEST(EndToEndTest, TrainSampleEvaluate) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 6;
  config.batches_per_iteration = 2;
  const auto dataset = make_matched_dataset(config, 400, 21);

  auto trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome outcome = trainer.run();

  // Sample from the winning mixture.
  const tensor::Tensor samples =
      CheckpointMixture(trainer.checkpoint(), outcome.best_cell).sample(100, config.seed);
  ASSERT_EQ(samples.rows(), 100u);
  ASSERT_EQ(samples.cols(), config.arch.image_dim);

  // Metrics over a matched-dimension classifier.
  common::Rng rng(99);
  metrics::Classifier classifier(rng, 32, config.arch.image_dim);
  classifier.train(dataset, 3, 20, 2e-3, rng);

  const double is = metrics::inception_score(classifier, samples);
  EXPECT_GE(is, 1.0);
  EXPECT_LE(is, 10.0 + 1e-9);

  const double fid =
      metrics::fid_score(classifier, dataset.images.slice_rows(0, 100), samples);
  EXPECT_TRUE(std::isfinite(fid));
  EXPECT_GE(fid, -0.5);  // numerically near-zero lower bound

  const auto modes = metrics::mode_report(classifier, samples);
  std::size_t total = 0;
  for (const auto c : modes.class_counts) total += c;
  EXPECT_EQ(total, 100u);
}

TEST(EndToEndTest, TrainingImprovesGeneratorAgainstFixedCritic) {
  // Real-data FID of mixture samples should not degrade as training runs
  // longer (weak monotonicity check appropriate for 6 vs 1 iterations of a
  // tiny GAN; full convergence is out of scope for unit tests).
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.batches_per_iteration = 4;
  const auto dataset = make_matched_dataset(config, 400, 22);

  config.iterations = 1;
  auto short_trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome short_outcome = short_trainer.run();

  config.iterations = 10;
  auto long_trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome long_outcome = long_trainer.run();

  // Generator loss against its own discriminator after more coevolution
  // should be no worse (both trained adversarially, so compare best cells).
  EXPECT_LE(long_outcome.g_fitnesses[long_outcome.best_cell],
            short_outcome.g_fitnesses[short_outcome.best_cell] + 0.5);
}

TEST(EndToEndTest, PaperArchitectureRunsAtTinyScale) {
  // One iteration of the paper's full-size networks end to end: exercises
  // the exact Table I topology (64-256-256-784 / 784-256-256-1).
  TrainingConfig config;  // paper defaults
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 1;
  config.batch_size = 20;
  config.fitness_eval_samples = 20;
  const auto dataset = make_matched_dataset(config, 60, 23);

  auto trainer = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome outcome = trainer.run();
  for (const double f : outcome.g_fitnesses) EXPECT_TRUE(std::isfinite(f));
  const auto genome = trainer.cell(0).center_genome();
  EXPECT_EQ(genome.generator_params.size(), 283920u);
  EXPECT_EQ(genome.discriminator_params.size(), 267009u);
}

TEST(EndToEndTest, SampleSheetIsWritable) {
  TrainingConfig config;  // paper arch produces 28x28 images
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 1;
  config.batch_size = 10;
  config.fitness_eval_samples = 10;
  const auto dataset = make_matched_dataset(config, 40, 24);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  (void)trainer.run();
  const tensor::Tensor samples = CheckpointMixture(trainer.checkpoint(), 0).sample(4, 1);
  const testsupport::TempDir tmp{"cellgan_e2e"};
  EXPECT_TRUE(data::write_pgm_grid(tmp.file("e2e_samples.pgm").string(), samples.data(), 4, 2));
}

}  // namespace
}  // namespace cellgan::core
