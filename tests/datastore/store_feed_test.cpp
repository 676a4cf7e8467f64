// The store plane's feed: StoreFeed vs. the legacy DataLoader (bit-identical
// batch streams under the trainer's exact interleaving), synchronous staging
// on the calling thread, and the concurrent-reader hammer the ASan job leans
// on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "data/dataloader.hpp"
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
  StoreFeed feed(SampleStore::adopt(dataset), batch);
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
    ++next;
  }
  EXPECT_EQ(feed.order(), loader.order());
}

TEST(StoreFeedTest, RestoreOrderReplaysCheckpointedEpoch) {
  const data::Dataset dataset = data::make_synthetic_mnist(32, 23);
  common::Rng rng(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, 8);
  loader.reshuffle(rng);
  const std::vector<std::uint32_t> saved = loader.order();

  StoreFeed feed(SampleStore::adopt(dataset), 8);
  feed.restore_order(saved);  // the checkpoint-resume path
  EXPECT_EQ(feed.order(), saved);
  for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) {
    expect_same_tensor(feed.batch(i), loader.batch(i));
  }
}

TEST(StoreFeedTest, MakeFeedResolvesPlanes) {
  const data::Dataset dataset = data::make_synthetic_mnist(24, 29);
  auto legacy = make_feed(DataPlane::kLegacy, dataset, 8);
  auto store = make_feed(DataPlane::kStore, dataset, 8);
  EXPECT_EQ(legacy->plane(), DataPlane::kLegacy);
  EXPECT_EQ(store->plane(), DataPlane::kStore);
  EXPECT_EQ(legacy->batches_per_epoch(), store->batches_per_epoch());
  // Identity order at construction: both serve the same batches untouched.
  for (std::size_t i = 0; i < store->batches_per_epoch(); ++i) {
    expect_same_tensor(store->batch(i), legacy->batch(i));
  }
}

TEST(StoreFeedTest, EnvironmentDoesNotChooseThePlane) {
  // A default config trains on the legacy plane whatever the environment
  // says; only TrainingConfig::data_plane selects.
  ::setenv("CELLGAN_DATA_PLANE", "store", 1);
  const data::Dataset dataset = data::make_synthetic_mnist(24, 29);
  EXPECT_EQ(make_feed(core::TrainingConfig{}.data_plane, dataset, 8)->plane(),
            DataPlane::kLegacy);
  ::unsetenv("CELLGAN_DATA_PLANE");
}

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(StoreFeedTest, StagesOnTheCallingThread) {
  // The store plane stages every batch synchronously: building a feed and
  // drawing two epochs must not start a single thread.
  const data::Dataset dataset = data::make_synthetic_mnist(40, 47);
  const std::size_t threads_before = live_threads();
  auto feed = make_feed(DataPlane::kStore, dataset, 8);
  common::Rng rng(testsupport::deterministic_seed());
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed->reshuffle(rng);
    for (std::size_t i = 0; i < feed->batches_per_epoch(); ++i) (void)feed->batch(i);
  }
  EXPECT_EQ(live_threads(), threads_before);
}

TEST(StoreFeedTest, ConcurrentStoreFeedsShareOneStore) {
  // Several feeds (as parallel lanes would create) over one interned store,
  // each on its own thread with its own rng/order — every feed must match its
  // private legacy loader. The ASan job leans on this concurrent-reader
  // hammer.
  const data::Dataset dataset = data::make_synthetic_mnist(48, 43);
  const std::size_t lanes = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      common::Rng rng_a(testsupport::deterministic_seed(lane));
      common::Rng rng_b(testsupport::deterministic_seed(lane));
      data::DataLoader loader(dataset, 8);
      StoreFeed feed(SampleStore::for_dataset(dataset), 8);
      for (int epoch = 0; epoch < 4; ++epoch) {
        loader.reshuffle(rng_a);
        feed.reshuffle(rng_b);
        for (std::size_t i = 0; i < loader.batches_per_epoch(); ++i) {
          const tensor::Tensor a = loader.batch(i);
          const tensor::Tensor b = feed.batch(i);
          for (std::size_t j = 0; j < a.size(); ++j) {
            if (a.data()[j] != b.data()[j]) {
              mismatches.fetch_add(1);
              return;
            }
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
