#include "data/synthetic_mnist.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "testsupport/label_counts.hpp"

namespace cellgan::data {
namespace {

TEST(SyntheticMnistTest, DatasetHasRequestedShape) {
  const Dataset ds = make_synthetic_mnist(100, 1);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.images.cols(), kImageDim);
  EXPECT_EQ(ds.labels.size(), 100u);
}

TEST(SyntheticMnistTest, PixelsInGanRange) {
  const Dataset ds = make_synthetic_mnist(50, 2);
  for (const float v : ds.images.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticMnistTest, LabelsAreBalanced) {
  const Dataset ds = make_synthetic_mnist(200, 3);
  const auto hist = testsupport::label_counts(ds.labels);
  ASSERT_EQ(hist.size(), kNumClasses);
  for (const auto count : hist) EXPECT_EQ(count, 20u);
}

TEST(SyntheticMnistTest, DeterministicBySeed) {
  const Dataset a = make_synthetic_mnist(30, 7);
  const Dataset b = make_synthetic_mnist(30, 7);
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    ASSERT_EQ(a.images.data()[i], b.images.data()[i]);
  }
}

TEST(SyntheticMnistTest, DifferentSeedsDiffer) {
  const Dataset a = make_synthetic_mnist(30, 7);
  const Dataset b = make_synthetic_mnist(30, 8);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    diff += std::abs(a.images.data()[i] - b.images.data()[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(SyntheticMnistTest, EveryDigitRendersInk) {
  common::Rng rng(5);
  SyntheticMnistOptions options;
  std::vector<float> image(kImageDim);
  for (std::uint32_t digit = 0; digit < kNumClasses; ++digit) {
    render_digit(digit, rng, options, image);
    int lit = 0;
    for (const float v : image) {
      if (v > 0.0f) ++lit;  // above mid-gray means inked
    }
    EXPECT_GT(lit, 20) << "digit " << digit << " rendered too little ink";
    EXPECT_LT(lit, static_cast<int>(kImageDim) / 2)
        << "digit " << digit << " flooded the canvas";
  }
}

TEST(SyntheticMnistTest, SamplesOfSameDigitVary) {
  common::Rng rng(6);
  SyntheticMnistOptions options;
  std::vector<float> a(kImageDim), b(kImageDim);
  render_digit(3, rng, options, a);
  render_digit(3, rng, options, b);
  double diff = 0.0;
  for (std::size_t i = 0; i < kImageDim; ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1.0);  // affine jitter must move pixels around
}

TEST(SyntheticMnistTest, ClassMeansAreDistinct) {
  // The ten modes must be separable or mode-coverage metrics are vacuous:
  // compare per-class mean images pairwise.
  const Dataset ds = make_synthetic_mnist(400, 9);
  std::vector<std::vector<double>> means(kNumClasses,
                                         std::vector<double>(kImageDim, 0.0));
  std::vector<int> counts(kNumClasses, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto row = ds.images.row_span(i);
    auto& m = means[ds.labels[i]];
    for (std::size_t j = 0; j < kImageDim; ++j) m[j] += row[j];
    ++counts[ds.labels[i]];
  }
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    for (auto& v : means[c]) v /= counts[c];
  }
  for (std::size_t a = 0; a < kNumClasses; ++a) {
    for (std::size_t b = a + 1; b < kNumClasses; ++b) {
      double dist = 0.0;
      for (std::size_t j = 0; j < kImageDim; ++j) {
        const double d = means[a][j] - means[b][j];
        dist += d * d;
      }
      EXPECT_GT(std::sqrt(dist), 1.0) << "digits " << a << " and " << b
                                      << " are not separable";
    }
  }
}

TEST(SyntheticMnistTest, NoiseKnobAddsNoise) {
  common::Rng rng1(4), rng2(4);
  SyntheticMnistOptions clean;
  clean.pixel_noise = 0.0f;
  SyntheticMnistOptions noisy;
  noisy.pixel_noise = 0.1f;
  std::vector<float> a(kImageDim), b(kImageDim);
  render_digit(0, rng1, clean, a);
  render_digit(0, rng2, noisy, b);
  // Background pixels (far from strokes) should be exactly -1 only when clean.
  int exact_background_clean = 0, exact_background_noisy = 0;
  for (std::size_t i = 0; i < kImageDim; ++i) {
    if (a[i] == -1.0f) ++exact_background_clean;
    if (b[i] == -1.0f) ++exact_background_noisy;
  }
  EXPECT_GT(exact_background_clean, exact_background_noisy);
}

TEST(SyntheticMnistTest, SizedRenderingProducesAnyResolution) {
  common::Rng rng(11);
  SyntheticMnistOptions options;
  for (const std::size_t side : {8u, 16u, 32u, 64u}) {
    std::vector<float> image(side * side);
    render_digit_sized(3, rng, options, side, image);
    int lit = 0;
    for (const float v : image) {
      ASSERT_GE(v, -1.0f);
      ASSERT_LE(v, 1.0f);
      if (v > 0.0f) ++lit;
    }
    EXPECT_GT(lit, static_cast<int>(side)) << "side " << side;
  }
}

TEST(SyntheticMnistTest, SizedDatasetShape) {
  const Dataset ds = make_synthetic_digits(20, 32, 12);
  EXPECT_EQ(ds.size(), 20u);
  EXPECT_EQ(ds.images.cols(), 32u * 32u);
}

TEST(SyntheticMnistTest, ResolutionPreservesInkFraction) {
  // The same glyph rendered at 16 and 48 pixels should cover a similar
  // fraction of the canvas (vector re-rendering, not pixel scaling).
  common::Rng rng1(13), rng2(13);
  SyntheticMnistOptions options;
  options.pixel_noise = 0.0f;
  std::vector<float> small(16 * 16), large(48 * 48);
  render_digit_sized(0, rng1, options, 16, small);
  render_digit_sized(0, rng2, options, 48, large);
  auto ink_fraction = [](const std::vector<float>& image) {
    int lit = 0;
    for (const float v : image) {
      if (v > 0.0f) ++lit;
    }
    return static_cast<double>(lit) / image.size();
  };
  EXPECT_NEAR(ink_fraction(small), ink_fraction(large), 0.05);
}

TEST(SyntheticMnistDeathTest, InvalidDigitAborts) {
  common::Rng rng(1);
  SyntheticMnistOptions options;
  std::vector<float> image(kImageDim);
  EXPECT_DEATH(render_digit(10, rng, options, image), "precondition");
}

}  // namespace
}  // namespace cellgan::data
