#include "evolve/genome.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/gan_models.hpp"
#include "tensor/ops.hpp"

namespace cellgan::core {
namespace {

evolve::CellGenome make_test_genome() {
  evolve::CellGenome g;
  g.generator_params = {1.0f, 2.0f, 3.0f};
  g.discriminator_params = {-1.0f, -2.0f};
  g.g_learning_rate = 0.0002;
  g.d_learning_rate = 0.0003;
  g.g_fitness = 0.5;
  g.d_fitness = 1.5;
  g.origin_cell = 7;
  g.iteration = 42;
  return g;
}

TEST(GenomeTest, SerializeRoundtrip) {
  const evolve::CellGenome g = make_test_genome();
  const auto bytes = g.serialize();
  const evolve::CellGenome loaded = evolve::CellGenome::deserialize(bytes);
  EXPECT_EQ(loaded.generator_params, g.generator_params);
  EXPECT_EQ(loaded.discriminator_params, g.discriminator_params);
  EXPECT_DOUBLE_EQ(loaded.g_learning_rate, g.g_learning_rate);
  EXPECT_DOUBLE_EQ(loaded.d_learning_rate, g.d_learning_rate);
  EXPECT_DOUBLE_EQ(loaded.g_fitness, g.g_fitness);
  EXPECT_DOUBLE_EQ(loaded.d_fitness, g.d_fitness);
  EXPECT_EQ(loaded.origin_cell, 7u);
  EXPECT_EQ(loaded.iteration, 42u);
}

TEST(GenomeTest, ByteSizeMatchesSerializedLength) {
  const evolve::CellGenome g = make_test_genome();
  EXPECT_EQ(g.serialize().size(), g.byte_size());
}

TEST(GenomeTest, CaptureTakesCurrentParameters) {
  common::Rng rng(1);
  const nn::GanArch arch = nn::GanArch::tiny();
  nn::Sequential generator = nn::make_generator(arch, rng);
  nn::Sequential discriminator = nn::make_discriminator(arch, rng);
  const evolve::CellGenome g = evolve::CellGenome::capture(generator, discriminator);
  EXPECT_EQ(g.generator_params.size(), arch.generator_parameter_count());
  EXPECT_EQ(g.discriminator_params.size(), arch.discriminator_parameter_count());
  EXPECT_EQ(g.generator_params, generator.flatten_parameters());
}

TEST(GenomeTest, InstallRestoresNetworkBehavior) {
  common::Rng rng(2);
  const nn::GanArch arch = nn::GanArch::tiny();
  nn::Sequential g1 = nn::make_generator(arch, rng);
  nn::Sequential d1 = nn::make_discriminator(arch, rng);
  const evolve::CellGenome genome = evolve::CellGenome::capture(g1, d1);

  nn::Sequential g2 = nn::make_generator(arch, rng);  // different weights
  nn::Sequential d2 = nn::make_discriminator(arch, rng);
  genome.install(g2, d2);

  const tensor::Tensor z = tensor::Tensor::randn(4, arch.latent_dim, rng);
  const tensor::Tensor out1 = g1.forward(z);
  const tensor::Tensor out2 = g2.forward(z);
  for (std::size_t i = 0; i < out1.size(); ++i) {
    EXPECT_FLOAT_EQ(out1.data()[i], out2.data()[i]);
  }
}

TEST(GenomeTest, PaperGenomeByteSizeIsMegabytes) {
  // The exchanged payload at paper scale: ~2.2 MB of float32 parameters —
  // the size that drives the gather-time calibration.
  evolve::CellGenome g;
  g.generator_params.resize(nn::GanArch::paper().generator_parameter_count());
  g.discriminator_params.resize(
      nn::GanArch::paper().discriminator_parameter_count());
  const double mb = static_cast<double>(g.byte_size()) / (1024.0 * 1024.0);
  EXPECT_GT(mb, 2.0);
  EXPECT_LT(mb, 2.5);
}

TEST(GenomeTest, EmptyGenomeRoundtrips) {
  evolve::CellGenome g;
  const evolve::CellGenome loaded = evolve::CellGenome::deserialize(g.serialize());
  EXPECT_TRUE(loaded.generator_params.empty());
  EXPECT_TRUE(loaded.discriminator_params.empty());
}

TEST(GenomeDeathTest, TruncatedPayloadAborts) {
  const auto bytes = make_test_genome().serialize();
  const std::span<const std::uint8_t> truncated(bytes.data(), bytes.size() - 4);
  EXPECT_DEATH((void)evolve::CellGenome::deserialize(truncated), "condition");
}

}  // namespace
}  // namespace cellgan::core
