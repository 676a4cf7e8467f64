#include "evolve/mixture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/gan_models.hpp"

namespace cellgan::core {
namespace {

double weight_sum(const evolve::MixtureWeights& w) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) total += w.weight(i);
  return total;
}

TEST(MixtureWeightsTest, StartsUniformNormalized) {
  evolve::MixtureWeights w(5);
  EXPECT_EQ(w.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(w.weight(i), 0.2);
}

TEST(MixtureWeightsTest, SetWeightsNormalizes) {
  evolve::MixtureWeights w(3);
  w.set_weights({2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(w.weight(0), 0.5);
  EXPECT_DOUBLE_EQ(w.weight(1), 0.25);
  EXPECT_NEAR(weight_sum(w), 1.0, 1e-12);
}

TEST(MixtureWeightsTest, MutationKeepsSimplexInvariants) {
  common::Rng rng(1);
  evolve::MixtureWeights w(5);
  for (int round = 0; round < 100; ++round) {
    w = w.mutated(0.05, rng);
    EXPECT_NEAR(weight_sum(w), 1.0, 1e-9) << "round " << round;
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_GE(w.weight(i), 0.0);
    }
  }
}

TEST(MixtureWeightsTest, MutationWithPaperScaleIsSmall) {
  common::Rng rng(2);
  evolve::MixtureWeights w(5);
  const evolve::MixtureWeights m = w.mutated(0.01, rng);  // Table I scale
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(m.weight(i), w.weight(i), 0.1);
  }
}

TEST(MixtureWeightsTest, MutationDoesNotChangeOriginal) {
  common::Rng rng(3);
  evolve::MixtureWeights w(4);
  (void)w.mutated(0.5, rng);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(w.weight(i), 0.25);
}

TEST(MixtureWeightsTest, DegenerateMutationFallsBackToUniform) {
  common::Rng rng(4);
  evolve::MixtureWeights w(3);
  // Huge negative shifts clamp everything to zero -> renormalize to uniform.
  w.set_weights({1.0, 0.0, 0.0});
  bool saw_uniform_fallback = false;
  for (int i = 0; i < 200 && !saw_uniform_fallback; ++i) {
    const evolve::MixtureWeights m = w.mutated(5.0, rng);
    saw_uniform_fallback = std::abs(m.weight(0) - 1.0 / 3) < 1e-12 &&
                           std::abs(m.weight(1) - 1.0 / 3) < 1e-12;
    EXPECT_NEAR(weight_sum(m), 1.0, 1e-9);
  }
  // Not guaranteed every draw, but with sigma=5 it should occur.
  EXPECT_TRUE(saw_uniform_fallback);
}

TEST(MixtureWeightsTest, SampleIndexFollowsDistribution) {
  common::Rng rng(5);
  evolve::MixtureWeights w(3);
  w.set_weights({0.7, 0.2, 0.1});
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[w.sample_index(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(MixtureWeightsTest, ZeroWeightNeverSampled) {
  common::Rng rng(6);
  evolve::MixtureWeights w(3);
  w.set_weights({0.5, 0.0, 0.5});
  for (int i = 0; i < 5000; ++i) EXPECT_NE(w.sample_index(rng), 1u);
}

TEST(MixtureWeightsDeathTest, NegativeWeightAborts) {
  evolve::MixtureWeights w(2);
  EXPECT_DEATH(w.set_weights({0.5, -0.1}), "precondition");
}

TEST(MixtureWeightsDeathTest, EmptyMixtureAborts) {
  EXPECT_DEATH(evolve::MixtureWeights(0), "precondition");
}

TEST(SampleMixtureTest, ProducesRequestedCount) {
  common::Rng rng(7);
  const nn::GanArch arch = nn::GanArch::tiny();
  nn::Sequential g1 = nn::make_generator(arch, rng);
  nn::Sequential g2 = nn::make_generator(arch, rng);
  evolve::MixtureWeights w(2);
  const std::vector<evolve::MixtureMember> members{{&g1, {}}, {&g2, {}}};
  const tensor::Tensor samples =
      evolve::sample_mixture(w, members, arch.latent_dim, 17, rng).images;
  EXPECT_EQ(samples.rows(), 17u);
  EXPECT_EQ(samples.cols(), arch.image_dim);
  for (const float v : samples.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SampleMixtureTest, DegenerateWeightUsesOnlyThatGenerator) {
  common::Rng rng(8);
  const nn::GanArch arch = nn::GanArch::tiny();
  nn::Sequential g1 = nn::make_generator(arch, rng);
  nn::Sequential g2 = nn::make_generator(arch, rng);
  evolve::MixtureWeights w(2);
  w.set_weights({1.0, 0.0});
  // Same RNG state twice: mixture output must equal g1's direct output.
  common::Rng rng_a(99), rng_b(99);
  const std::vector<evolve::MixtureMember> members{{&g1, {}}, {&g2, {}}};
  const tensor::Tensor via_mixture =
      evolve::sample_mixture(w, members, arch.latent_dim, 5, rng_a).images;
  // Reproduce: sample_index consumes one uniform per sample.
  for (int i = 0; i < 5; ++i) (void)rng_b.uniform();
  const tensor::Tensor z = tensor::Tensor::randn(5, arch.latent_dim, rng_b);
  const tensor::Tensor direct = g1.forward(z);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FLOAT_EQ(via_mixture.data()[i], direct.data()[i]);
  }
}

}  // namespace
TEST(SampleMixtureTest, ByMemberRowsAreTheDrawnRowsGroupedWithTheirLabels) {
  common::Rng rng(9);
  const nn::GanArch arch = nn::GanArch::tiny();
  constexpr std::size_t kClasses = 10;
  nn::Sequential g1 = nn::make_generator(arch, rng, kClasses);
  const std::vector<float> g2_params =
      nn::make_generator(arch, rng, kClasses).flatten_parameters();
  nn::Sequential borrowed = nn::borrowing_generator(arch, kClasses);
  const std::vector<evolve::MixtureMember> members{{&g1, {}}, {&borrowed, g2_params}};
  const evolve::MixtureWeights w(2);
  common::Rng plan_rng(5), drawn_rng(5), grouped_rng(5);
  const evolve::MixtureDraw plan =
      evolve::plan_mixture_draw(w, 2, arch.latent_dim, 11, plan_rng, kClasses);
  const evolve::MixtureSample drawn = evolve::sample_mixture(
      w, members, arch.latent_dim, 11, drawn_rng, kClasses, evolve::MixtureRows::kDrawn);
  const evolve::MixtureSample grouped =
      evolve::sample_mixture(w, members, arch.latent_dim, 11, grouped_rng, kClasses,
                             evolve::MixtureRows::kByMember);
  ASSERT_EQ(grouped.labels.size(), 11u);
  std::size_t row = 0;
  for (std::size_t g = 0; g < 2; ++g) {
    for (const std::size_t drawn_row : plan.rows_of[g]) {
      const auto a = drawn.images.row_span(drawn_row);
      const auto b = grouped.images.row_span(row);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << row;
      EXPECT_EQ(drawn.labels[drawn_row], grouped.labels[row]) << "row " << row;
      ++row;
    }
  }
  EXPECT_EQ(row, 11u);
}

}  // namespace cellgan::core
