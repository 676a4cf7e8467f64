#include "core/gan_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "nn/gan_models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernels.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::core {
namespace {

struct GanFixture : public ::testing::Test {
  void SetUp() override {
    TrainingConfig config = TrainingConfig::tiny();
    dataset = make_matched_dataset(config, 200, 3);
    generator = nn::make_generator(arch, rng);
    discriminator = nn::make_discriminator(arch, rng);
  }

  common::Rng rng{11};
  nn::GanArch arch = nn::GanArch::tiny();
  data::Dataset dataset;
  nn::Sequential generator;
  nn::Sequential discriminator;
};

TEST_F(GanFixture, DiscriminatorStepReturnsFiniteLossAndUpdates) {
  nn::Adam d_opt(1e-3);
  const tensor::Tensor real = dataset.images.slice_rows(0, 16);
  const auto before = discriminator.flatten_parameters();
  const double loss = train_discriminator_step(discriminator, d_opt, generator,
                                               real, arch.latent_dim, rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
  EXPECT_NE(discriminator.flatten_parameters(), before);
}

TEST_F(GanFixture, DiscriminatorStepDoesNotTouchGenerator) {
  nn::Adam d_opt(1e-3);
  const tensor::Tensor real = dataset.images.slice_rows(0, 16);
  const auto g_before = generator.flatten_parameters();
  (void)train_discriminator_step(discriminator, d_opt, generator, real,
                                 arch.latent_dim, rng);
  EXPECT_EQ(generator.flatten_parameters(), g_before);
}

TEST_F(GanFixture, GeneratorStepUpdatesOnlyGenerator) {
  nn::Adam g_opt(1e-3);
  const auto g_before = generator.flatten_parameters();
  const auto d_before = discriminator.flatten_parameters();
  const double loss = train_generator_step(generator, g_opt, discriminator, 16,
                                           arch.latent_dim, rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NE(generator.flatten_parameters(), g_before);
  EXPECT_EQ(discriminator.flatten_parameters(), d_before);
}

TEST_F(GanFixture, DiscriminatorLearnsToSeparate) {
  // Repeated D updates against a frozen generator must reduce D loss.
  nn::Adam d_opt(2e-3);
  const tensor::Tensor real = dataset.images.slice_rows(0, 32);
  const double initial = evaluate_discriminator_loss(discriminator, generator,
                                                     real, arch.latent_dim, rng);
  for (int i = 0; i < 60; ++i) {
    (void)train_discriminator_step(discriminator, d_opt, generator, real,
                                   arch.latent_dim, rng);
  }
  const double trained = evaluate_discriminator_loss(discriminator, generator,
                                                     real, arch.latent_dim, rng);
  EXPECT_LT(trained, initial * 0.8);
}

TEST_F(GanFixture, GeneratorLearnsToFoolFrozenDiscriminator) {
  // Make D mildly informed first, then let G chase it.
  nn::Adam d_opt(2e-3);
  const tensor::Tensor real = dataset.images.slice_rows(0, 32);
  for (int i = 0; i < 20; ++i) {
    (void)train_discriminator_step(discriminator, d_opt, generator, real,
                                   arch.latent_dim, rng);
  }
  const double initial = evaluate_generator_loss(generator, discriminator, 64,
                                                 arch.latent_dim, rng);
  nn::Adam g_opt(2e-3);
  for (int i = 0; i < 80; ++i) {
    (void)train_generator_step(generator, g_opt, discriminator, 32,
                               arch.latent_dim, rng);
  }
  const double trained = evaluate_generator_loss(generator, discriminator, 64,
                                                 arch.latent_dim, rng);
  EXPECT_LT(trained, initial);
}

TEST_F(GanFixture, EvaluationsDoNotMutateNetworks) {
  const auto g_before = generator.flatten_parameters();
  const auto d_before = discriminator.flatten_parameters();
  const tensor::Tensor real = dataset.images.slice_rows(0, 8);
  (void)evaluate_generator_loss(generator, discriminator, 8, arch.latent_dim, rng);
  (void)evaluate_discriminator_loss(discriminator, generator, real,
                                    arch.latent_dim, rng);
  EXPECT_EQ(generator.flatten_parameters(), g_before);
  EXPECT_EQ(discriminator.flatten_parameters(), d_before);
}

TEST_F(GanFixture, UntrainedLossesNearChanceLevel) {
  // With random nets, D's two-sided BCE should be near 2*ln2 and G's near ln2.
  const tensor::Tensor real = dataset.images.slice_rows(0, 32);
  const double d_loss = evaluate_discriminator_loss(discriminator, generator,
                                                    real, arch.latent_dim, rng);
  const double g_loss = evaluate_generator_loss(generator, discriminator, 64,
                                                arch.latent_dim, rng);
  EXPECT_NEAR(d_loss, 2.0 * std::log(2.0), 0.7);
  EXPECT_NEAR(g_loss, std::log(2.0), 0.5);
}

/// FNV-1a (64-bit) over the bytes of a parameter vector.
std::uint64_t fnv1a_64(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(GanStepBits, SimdStepBitsArePinned) {
  // The cross-backend and cross-lane suites compare runs of one build, so a
  // compiler that fuses a multiply and an add in an elementwise loop or in
  // Adam changes every backend alike and passes them. These hashes pin the
  // parameters after three tiny-arch D+G steps under kSimd across builds.
  // The conditional pathway makes the input widths 18 and 74 and the batch
  // is 13, so rows, widths and buffers end in partial vectors. The latents
  // and the loss also go through libm (randn, exp, log1p).
  const std::vector<const char*> tiles = tensor::kernels::runnable_gemm_tiles();
  if (std::none_of(tiles.begin(), tiles.end(), [](const char* tile) {
        return std::string(tile) == "avx2+fma";
      })) {
    GTEST_SKIP() << "hashes are of the avx2+fma kernels; this CPU lacks AVX2+FMA";
  }
  testsupport::KindGuard guard(tensor::KernelKind::kSimd);
  constexpr std::size_t kClasses = 10;
  constexpr std::size_t kBatch = 13;
  const nn::GanArch arch = nn::GanArch::tiny();
  common::Rng rng(2024);
  nn::Sequential generator = nn::make_generator(arch, rng, kClasses);
  nn::Sequential discriminator = nn::make_discriminator(arch, rng, kClasses);
  const tensor::Tensor real =
      tensor::Tensor::rand_uniform(kBatch, arch.image_dim, rng, -1.0f, 1.0f);
  std::vector<std::uint32_t> labels(kBatch);
  for (auto& label : labels) label = static_cast<std::uint32_t>(rng.uniform_int(kClasses));
  GanStepOptions options;
  options.label_classes = kClasses;
  options.real_labels = labels;
  nn::Adam g_opt(2e-4);
  nn::Adam d_opt(2e-4);
  for (int step = 0; step < 3; ++step) {
    (void)train_discriminator_step(discriminator, d_opt, generator, real,
                                   arch.latent_dim, rng, GanLossKind::kHeuristic,
                                   options);
    (void)train_generator_step(generator, g_opt, discriminator, kBatch,
                               arch.latent_dim, rng, GanLossKind::kHeuristic, options);
  }
  EXPECT_EQ(0x9b4012cef9e54aa4ull, fnv1a_64(generator.flatten_parameters()));
  EXPECT_EQ(0x3fef8e52858e3c72ull, fnv1a_64(discriminator.flatten_parameters()));
}

}  // namespace
}  // namespace cellgan::core
