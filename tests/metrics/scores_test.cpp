#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "data/synthetic_mnist.hpp"
#include "metrics/fid.hpp"
#include "metrics/inception_score.hpp"
#include "metrics/mode_coverage.hpp"

namespace cellgan::metrics {
namespace {

tensor::Tensor one_hot_probs(const std::vector<std::uint32_t>& labels,
                             float confidence) {
  tensor::Tensor probs(labels.size(), data::kNumClasses);
  const float rest = (1.0f - confidence) / (data::kNumClasses - 1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t c = 0; c < data::kNumClasses; ++c) {
      probs.at(i, c) = (c == labels[i]) ? confidence : rest;
    }
  }
  return probs;
}

TEST(InceptionScoreTest, ConfidentDiverseIsMaximal) {
  // One perfectly confident sample per class: IS -> num_classes.
  std::vector<std::uint32_t> labels(10);
  for (std::uint32_t i = 0; i < 10; ++i) labels[i] = i;
  const double is = inception_score_from_probs(one_hot_probs(labels, 0.9999f));
  EXPECT_GT(is, 9.0);
  EXPECT_LE(is, 10.0 + 1e-6);
}

TEST(InceptionScoreTest, CollapsedGeneratorScoresOne) {
  // All samples confidently the same class: marginal == posterior, KL = 0.
  std::vector<std::uint32_t> labels(20, 3);
  const double is = inception_score_from_probs(one_hot_probs(labels, 0.9999f));
  EXPECT_NEAR(is, 1.0, 1e-2);
}

TEST(InceptionScoreTest, UniformPosteriorsScoreOne) {
  tensor::Tensor probs(15, data::kNumClasses);
  probs.fill(0.1f);
  EXPECT_NEAR(inception_score_from_probs(probs), 1.0, 1e-6);
}

TEST(InceptionScoreTest, MoreModesScoreHigher) {
  std::vector<std::uint32_t> two_modes(20);
  for (std::size_t i = 0; i < 20; ++i) two_modes[i] = i % 2;
  std::vector<std::uint32_t> five_modes(20);
  for (std::size_t i = 0; i < 20; ++i) five_modes[i] = i % 5;
  const double is2 = inception_score_from_probs(one_hot_probs(two_modes, 0.999f));
  const double is5 = inception_score_from_probs(one_hot_probs(five_modes, 0.999f));
  EXPECT_GT(is5, is2);
  EXPECT_NEAR(is2, 2.0, 0.05);
  EXPECT_NEAR(is5, 5.0, 0.1);
}

TEST(FidTest, IdenticalSetsScoreNearZero) {
  common::Rng rng(1);
  const tensor::Tensor features = tensor::Tensor::randn(200, 8, rng);
  const double fid = fid_from_features(features, features);
  EXPECT_NEAR(fid, 0.0, 1e-2);
}

TEST(FidTest, MeanShiftIncreasesFid) {
  common::Rng rng(2);
  const tensor::Tensor base = tensor::Tensor::randn(300, 6, rng);
  tensor::Tensor small_shift = base;
  tensor::Tensor big_shift = base;
  for (auto& v : small_shift.data()) v += 0.5f;
  for (auto& v : big_shift.data()) v += 2.0f;
  const double fid_small = fid_from_features(base, small_shift);
  const double fid_big = fid_from_features(base, big_shift);
  EXPECT_GT(fid_small, 0.1);
  EXPECT_GT(fid_big, fid_small);
  // Mean-shift-only FID is |shift|^2 * d in expectation.
  EXPECT_NEAR(fid_small, 0.25 * 6, 0.5);
}

TEST(FidTest, CovarianceShrinkIncreasesFid) {
  common::Rng rng(3);
  const tensor::Tensor base = tensor::Tensor::randn(400, 5, rng);
  tensor::Tensor shrunk = base;
  for (auto& v : shrunk.data()) v *= 0.2f;  // mode-collapse-like contraction
  const double fid = fid_from_features(base, shrunk);
  EXPECT_GT(fid, 1.0);
}

TEST(FidTest, SymmetricInArguments) {
  common::Rng rng(4);
  const tensor::Tensor a = tensor::Tensor::randn(200, 4, rng);
  tensor::Tensor b = tensor::Tensor::randn(200, 4, rng, 1.5f);
  const double ab = fid_from_features(a, b);
  const double ba = fid_from_features(b, a);
  EXPECT_NEAR(ab, ba, 0.05 * std::max(1.0, ab));
}

TEST(ModeCoverageTest, BalancedHistogramCoversAll) {
  common::Rng rng(5);
  Classifier classifier(rng);
  const auto train = data::make_synthetic_mnist(800, 6);
  classifier.train(train, 5, 50, 2e-3, rng);
  const auto fresh = data::make_synthetic_mnist(300, 7);
  const ModeReport report = mode_report(classifier, fresh.images);
  EXPECT_GE(report.modes_covered, 7u);  // trained classifier sees most modes
  EXPECT_LT(report.tvd_from_uniform, 0.35);
}

TEST(ModeCoverageTest, SingleClassInputCoversOne) {
  common::Rng rng(8);
  Classifier classifier(rng);
  const auto train = data::make_synthetic_mnist(800, 9);
  classifier.train(train, 5, 50, 2e-3, rng);
  // Build a set of only zeros.
  data::Dataset zeros;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (train.labels[i] == 0) idx.push_back(i);
  }
  zeros.images = tensor::Tensor(idx.size(), data::kImageDim);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto src = train.images.row_span(idx[i]);
    std::copy(src.begin(), src.end(), zeros.images.row_span(i).begin());
  }
  const ModeReport report = mode_report(classifier, zeros.images, 0.05);
  EXPECT_LE(report.modes_covered, 3u);
  EXPECT_GT(report.tvd_from_uniform, 0.5);
}

// --- degenerate-input hardening: telemetry-path metrics must yield defined
// --- values (or named errors), never NaN/UB ---------------------------------

TEST(InceptionScoreTest, EmptyBatchIsDefined) {
  const tensor::Tensor empty(0, data::kNumClasses);
  EXPECT_DOUBLE_EQ(inception_score_from_probs(empty), 1.0);
}

TEST(InceptionScoreTest, SingleSampleScoresOne) {
  const double is = inception_score_from_probs(one_hot_probs({4}, 0.99f));
  EXPECT_NEAR(is, 1.0, 1e-9);
  EXPECT_FALSE(std::isnan(is));
}

TEST(FidTest, TooFewSamplesIsANamedError) {
  common::Rng rng(11);
  const tensor::Tensor many = tensor::Tensor::randn(50, 4, rng);
  const tensor::Tensor one = tensor::Tensor::randn(1, 4, rng);
  const tensor::Tensor none(0, 4);
  for (const tensor::Tensor* degenerate : {&one, &none}) {
    try {
      (void)fid_from_features(many, *degenerate);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at least 2 samples"),
                std::string::npos);
    }
    EXPECT_THROW((void)fid_from_features(*degenerate, many),
                 std::invalid_argument);
  }
}

TEST(ModeCoverageTest, EmptyBatchIsDefined) {
  common::Rng rng(12);
  Classifier classifier(rng);
  const tensor::Tensor empty(0, data::kImageDim);
  const ModeReport report = mode_report(classifier, empty);
  EXPECT_EQ(report.modes_covered, 0u);
  EXPECT_EQ(report.class_counts, std::vector<std::size_t>(data::kNumClasses, 0));
  EXPECT_DOUBLE_EQ(report.tvd_from_uniform, 1.0);
  EXPECT_FALSE(std::isnan(report.tvd_from_uniform));
}

}  // namespace
}  // namespace cellgan::metrics
