#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/synthetic_mnist.hpp"

namespace cellgan::data {
namespace {

TEST(DatasetTest, SliceKeepsAlignment) {
  const Dataset ds = make_synthetic_mnist(50, 1);
  const Dataset s = ds.slice(10, 20);
  EXPECT_EQ(s.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.labels[i], ds.labels[10 + i]);
    EXPECT_EQ(s.images.at(i, 100), ds.images.at(10 + i, 100));
  }
}

TEST(DatasetTest, SubsampleWithoutReplacement) {
  common::Rng rng(2);
  std::vector<std::uint32_t> rows = subsample_rows(40, 40, rng);  // a permutation
  ASSERT_EQ(rows.size(), 40u);
  std::sort(rows.begin(), rows.end());
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(rows[i], i);
}

TEST(DatasetTest, SubsampleSmaller) {
  // A smaller subsample is the prefix of the permutation an equal-seeded
  // stream draws for the whole set, so dieting keeps the rows (and the order)
  // a copy of that prefix would hold.
  common::Rng rng(3);
  common::Rng full_rng(3);
  const std::vector<std::uint32_t> rows = subsample_rows(40, 10, rng);
  const std::vector<std::uint32_t> full = subsample_rows(40, 40, full_rng);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), full.begin()));
  EXPECT_EQ(rng(), full_rng());  // both consumed the same draws
}

TEST(DatasetTest, ClassHistogramCountsAll) {
  const Dataset ds = make_synthetic_mnist(30, 4);
  const auto hist = ds.class_histogram();
  std::size_t total = 0;
  for (const auto c : hist) total += c;
  EXPECT_EQ(total, 30u);
}

TEST(DatasetTest, DownsampleHalvesSide) {
  const Dataset ds = make_synthetic_mnist(10, 5);
  const Dataset small = downsampled(ds, 14);
  EXPECT_EQ(small.size(), 10u);
  EXPECT_EQ(small.images.cols(), 14u * 14u);
  EXPECT_EQ(small.labels, ds.labels);
}

TEST(DatasetTest, DownsamplePreservesRange) {
  const Dataset ds = make_synthetic_mnist(10, 5);
  const Dataset small = downsampled(ds, 8);
  for (const float v : small.images.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(DatasetTest, DownsamplePreservesMeanRoughly) {
  const Dataset ds = make_synthetic_mnist(20, 6);
  const Dataset small = downsampled(ds, 7);
  double mean_full = 0.0, mean_small = 0.0;
  for (const float v : ds.images.data()) mean_full += v;
  for (const float v : small.images.data()) mean_small += v;
  mean_full /= ds.images.size();
  mean_small /= small.images.size();
  EXPECT_NEAR(mean_full, mean_small, 0.1);
}

TEST(DatasetTest, DownsampleSameSideIsIdentity) {
  const Dataset ds = make_synthetic_mnist(5, 7);
  const Dataset same = downsampled(ds, kImageSide);
  for (std::size_t i = 0; i < ds.images.size(); ++i) {
    EXPECT_EQ(same.images.data()[i], ds.images.data()[i]);
  }
}

TEST(DatasetDeathTest, UpsampleRejected) {
  const Dataset ds = make_synthetic_mnist(5, 7);
  EXPECT_DEATH((void)downsampled(ds, 56), "precondition");
}

}  // namespace
}  // namespace cellgan::data
