#include "data/dataloader.hpp"

#include <gtest/gtest.h>

#include <set>

#include "data/synthetic_mnist.hpp"
#include "testsupport/label_counts.hpp"

namespace cellgan::data {
namespace {

TEST(DataLoaderTest, BatchShape) {
  const Dataset ds = make_synthetic_mnist(50, 1);
  DataLoader loader(ds, 10);
  EXPECT_EQ(loader.batches_per_epoch(), 5u);
  const tensor::Tensor batch = loader.batch(0);
  EXPECT_EQ(batch.rows(), 10u);
  EXPECT_EQ(batch.cols(), kImageDim);
}

TEST(DataLoaderTest, TailPartialBatchDropped) {
  const Dataset ds = make_synthetic_mnist(53, 1);
  DataLoader loader(ds, 10);
  EXPECT_EQ(loader.batches_per_epoch(), 5u);
}

TEST(DataLoaderTest, LabelsAlignWithImages) {
  const Dataset ds = make_synthetic_mnist(30, 2);
  DataLoader loader(ds, 5);
  common::Rng rng(1);
  loader.reshuffle(rng);
  for (std::size_t b = 0; b < loader.batches_per_epoch(); ++b) {
    const tensor::Tensor batch = loader.batch(b);
    const auto labels = loader.batch_labels(b);
    ASSERT_EQ(labels.size(), 5u);
    // Match each batch row back to a dataset row with the same content and
    // check the label agrees.
    for (std::size_t i = 0; i < 5; ++i) {
      bool found = false;
      for (std::size_t j = 0; j < ds.size() && !found; ++j) {
        bool equal = true;
        for (std::size_t c = 0; c < 20; ++c) {  // prefix comparison suffices
          if (batch.at(i, c) != ds.images.at(j, c)) {
            equal = false;
            break;
          }
        }
        if (equal && ds.labels[j] == labels[i]) found = true;
      }
      EXPECT_TRUE(found) << "batch " << b << " row " << i;
    }
  }
}

TEST(DataLoaderTest, EpochCoversEverySampleOnce) {
  const Dataset ds = make_synthetic_mnist(40, 3);
  DataLoader loader(ds, 8);
  common::Rng rng(5);
  loader.reshuffle(rng);
  // Identify samples by their first-pixel/label signature count.
  std::multiset<std::uint32_t> seen;
  for (std::size_t b = 0; b < loader.batches_per_epoch(); ++b) {
    for (const auto y : loader.batch_labels(b)) seen.insert(y);
  }
  EXPECT_EQ(seen.size(), 40u);
  const auto hist = testsupport::label_counts(ds.labels);
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(seen.count(c), hist[c]);
  }
}

TEST(DataLoaderTest, ReshuffleIsDeterministicGivenRng) {
  const Dataset ds = make_synthetic_mnist(30, 4);
  DataLoader a(ds, 10), b(ds, 10);
  common::Rng rng_a(9), rng_b(9);
  a.reshuffle(rng_a);
  b.reshuffle(rng_b);
  for (std::size_t i = 0; i < a.batches_per_epoch(); ++i) {
    EXPECT_EQ(a.batch_labels(i), b.batch_labels(i));
  }
}

TEST(DataLoaderTest, ReshuffleChangesOrder) {
  const Dataset ds = make_synthetic_mnist(100, 4);
  DataLoader loader(ds, 100);
  common::Rng rng(10);
  const auto before = loader.batch_labels(0);
  loader.reshuffle(rng);
  const auto after = loader.batch_labels(0);
  EXPECT_NE(before, after);
}

TEST(DataLoaderDeathTest, BatchLargerThanDatasetAborts) {
  const Dataset ds = make_synthetic_mnist(5, 1);
  EXPECT_DEATH(DataLoader(ds, 10), "precondition");
}

TEST(DataLoaderDeathTest, OutOfRangeBatchAborts) {
  const Dataset ds = make_synthetic_mnist(20, 1);
  DataLoader loader(ds, 10);
  EXPECT_DEATH((void)loader.batch(2), "precondition");
}

}  // namespace
}  // namespace cellgan::data
