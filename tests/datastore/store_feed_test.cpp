// StoreFeed, the one batch path: bit-identical batch streams to
// data::DataLoader (the oracle) under the trainer's exact interleaving, for
// every row and for a dieting cell's rows, synchronous staging on the calling
// thread, and the concurrent-reader hammer over one mapped store that the
// sanitizer jobs lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/dataloader.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/sample_store.hpp"
#include "datastore/shuffle_service.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::datastore {
namespace {

void expect_same_tensor(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(da[i], db[i]) << "flat index " << i;
  }
}

TEST(ShuffleServiceTest, SharesTheLoadersFisherYatesExactly) {
  // Same seed, same length -> ShuffleService and DataLoader::reshuffle must
  // draw the identical permutation (both delegate to common::Rng::shuffle)
  // and leave their Rng streams in the same state.
  const data::Dataset dataset = data::make_synthetic_mnist(40, 11);
  common::Rng rng_loader(testsupport::deterministic_seed());
  common::Rng rng_service(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, 8);
  ShuffleService service(dataset.size());
  EXPECT_EQ(service.order(), loader.order());  // both start at identity
  for (int epoch = 0; epoch < 5; ++epoch) {
    loader.reshuffle(rng_loader);
    service.reshuffle(rng_service);
    EXPECT_EQ(service.order(), loader.order());
  }
  EXPECT_EQ(rng_loader(), rng_service());  // streams advanced identically
}

TEST(StoreFeedTest, MatchesDataLoaderUnderTrainerInterleaving) {
  // Replicate CellTrainer's exact consumption pattern — reshuffle interleaved
  // with draws on ONE rng stream, a peek before every consuming read — and
  // require bit-identical tensors from both planes at every step.
  const data::Dataset dataset = data::make_synthetic_mnist(50, 17);
  const std::size_t batch = 8;  // 6 batches/epoch, tail dropped
  common::Rng rng_legacy(testsupport::deterministic_seed());
  common::Rng rng_store(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, batch);
  StoreFeed feed(dataset, batch);
  ASSERT_EQ(feed.batches_per_epoch(), loader.batches_per_epoch());

  loader.reshuffle(rng_legacy);
  feed.reshuffle(rng_store);
  std::size_t next = 0;
  for (int draw = 0; draw < 40; ++draw) {
    if (next >= loader.batches_per_epoch()) {
      loader.reshuffle(rng_legacy);
      feed.reshuffle(rng_store);
      next = 0;
    }
    // Peek (evaluate_center_fitness), then consume (train) the same index.
    expect_same_tensor(feed.batch(next), loader.batch(next));
    expect_same_tensor(feed.batch(next), loader.batch(next));
    EXPECT_EQ(feed.batch_labels(next), loader.batch_labels(next));
    ++next;
  }
  EXPECT_EQ(feed.order(), loader.order());
}

TEST(StoreFeedTest, DietingRowsMatchALoaderOverTheirCopy) {
  // A dieting cell keeps row indices, not a copy: its feed must serve what a
  // loader over a copy of those rows, in that order, serves.
  const data::Dataset dataset = data::make_synthetic_mnist(60, 19);
  common::Rng draw(testsupport::deterministic_seed());
  const std::vector<std::uint32_t> rows = data::subsample_rows(dataset.size(), 30, draw);
  data::Dataset copy;
  copy.images = tensor::Tensor(rows.size(), dataset.images.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = dataset.images.row_span(rows[i]);
    std::copy(src.begin(), src.end(), copy.images.row_span(i).begin());
    copy.labels.push_back(dataset.labels[rows[i]]);
  }
  const std::size_t batch = 8;  // 3 batches/epoch, tail dropped
  common::Rng rng_loader(testsupport::deterministic_seed(1));
  common::Rng rng_store(testsupport::deterministic_seed(1));
  data::DataLoader loader(copy, batch);
  StoreFeed feed(dataset, batch, rows);
  ASSERT_EQ(feed.batches_per_epoch(), loader.batches_per_epoch());
  for (int epoch = 0; epoch < 4; ++epoch) {
    loader.reshuffle(rng_loader);
    feed.reshuffle(rng_store);
    for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) {
      expect_same_tensor(feed.batch(i), loader.batch(i));
      EXPECT_EQ(feed.batch_labels(i), loader.batch_labels(i));
    }
  }
  EXPECT_EQ(feed.order(), loader.order());
}

TEST(StoreFeedTest, RestoreOrderReplaysCheckpointedEpoch) {
  const data::Dataset dataset = data::make_synthetic_mnist(32, 23);
  common::Rng rng(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, 8);
  loader.reshuffle(rng);
  const std::vector<std::uint32_t> saved = loader.order();

  StoreFeed feed(dataset, 8);
  feed.restore_order(saved);  // the checkpoint-resume path
  EXPECT_EQ(feed.order(), saved);
  for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) {
    expect_same_tensor(feed.batch(i), loader.batch(i));
  }
}

TEST(StoreFeedTest, MakeFeedResolvesPlanes) {
  // Whichever plane it names, make_feed serves the dataset's floats: the
  // batches of a fresh DataLoader over them.
  const data::Dataset dataset = data::make_synthetic_mnist(24, 29);
  const data::DataLoader loader(dataset, 8);
  for (const DataPlane plane : {DataPlane::kLegacy, DataPlane::kStore}) {
    const auto feed = make_feed(plane, dataset, 8);
    ASSERT_EQ(feed->batches_per_epoch(), loader.batches_per_epoch());
    for (std::size_t i = 0; i < feed->batches_per_epoch(); ++i) {
      expect_same_tensor(feed->batch(i), loader.batch(i));
    }
  }
}

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(StoreFeedTest, StagesOnTheCallingThread) {
  // A feed stages every batch synchronously: building one and drawing two
  // epochs must not start a single thread.
  const data::Dataset dataset = data::make_synthetic_mnist(40, 47);
  const std::size_t threads_before = live_threads();
  StoreFeed feed(dataset, 8);
  common::Rng rng(testsupport::deterministic_seed());
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed.reshuffle(rng);
    for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) (void)feed.batch(i);
  }
  EXPECT_EQ(live_threads(), threads_before);
}

TEST(StoreFeedTest, ConcurrentStoreFeedsShareOneStore) {
  // Several feeds (as parallel lanes and in-process ranks create) over one
  // mapped store, each on its own thread with its own copy of the handle and
  // its own rng/order — every feed must match its private loader over the
  // loaded floats. The sanitizer jobs lean on this concurrent-reader hammer.
  testsupport::TempDir dir("cellgan_feed_hammer");
  const data::Dataset digits = data::make_synthetic_mnist(48, 43);
  data::IdxImages images;
  images.count = static_cast<std::uint32_t>(digits.size());
  images.rows = images.cols = data::kImageSide;
  for (const float v : digits.images.data()) {
    images.pixels.push_back(static_cast<std::uint8_t>((v + 1.0f) * 127.5f));
  }
  const std::vector<std::uint8_t> labels(digits.labels.begin(), digits.labels.end());
  const std::string stem = dir.file("train").string();
  ASSERT_TRUE(data::write_idx_images(stem + "-images-idx3-ubyte", images));
  ASSERT_TRUE(data::write_idx_labels(stem + "-labels-idx1-ubyte", labels));
  ASSERT_TRUE(data::write_idx_images(dir.file("t10k-images-idx3-ubyte").string(), images));
  ASSERT_TRUE(data::write_idx_labels(dir.file("t10k-labels-idx1-ubyte").string(), labels));
  const auto loaded = data::load_mnist_idx(dir.path().string());
  ASSERT_TRUE(loaded.has_value());
  const data::Dataset& dataset = loaded->first;
  const SampleStore store =
      SampleStore::map_idx(stem + "-images-idx3-ubyte", stem + "-labels-idx1-ubyte");

  const std::size_t lanes = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      common::Rng rng_a(testsupport::deterministic_seed(lane));
      common::Rng rng_b(testsupport::deterministic_seed(lane));
      data::DataLoader loader(dataset, 8);
      StoreFeed feed(store, 8);
      for (int epoch = 0; epoch < 4; ++epoch) {
        loader.reshuffle(rng_a);
        feed.reshuffle(rng_b);
        for (std::size_t i = 0; i < loader.batches_per_epoch(); ++i) {
          const tensor::Tensor a = loader.batch(i);
          const tensor::Tensor b = feed.batch(i);
          if (!std::equal(a.data().begin(), a.data().end(), b.data().begin()) ||
              loader.batch_labels(i) != feed.batch_labels(i)) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cellgan::datastore
