// BatchFeed — the seam between training loops and the data plane.
//
// CellTrainer consumes batches through this interface; which plane serves
// them is TrainingConfig::data_plane (see data_plane.hpp):
//
//   * LegacyFeed forwards to data::DataLoader — byte-for-byte the historical
//     path, the parity baseline.
//   * StoreFeed stages each batch synchronously from a shared SampleStore on
//     the calling lane (gather + normalize, ~0.35 ms per paper-shape batch).
//
// Contract (both planes, pinned by tests/datastore/store_feed_test.cpp):
//   * construction leaves the identity order, like a fresh DataLoader;
//   * reshuffle() consumes exactly the Rng draws DataLoader::reshuffle does;
//   * batch(i) is repeatable — the trainer peeks an index in
//     evaluate_center_fitness() and reads it again in train();
//   * order()/restore_order() round-trip through checkpoints.
// Feeds are single-consumer: all methods are called from the owning trainer's
// thread. Any number of feeds may read one shared store concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "datastore/data_plane.hpp"
#include "datastore/sample_store.hpp"
#include "datastore/shuffle_service.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::datastore {

class BatchFeed {
 public:
  virtual ~BatchFeed() = default;

  virtual DataPlane plane() const = 0;
  virtual std::size_t batch_size() const = 0;
  virtual std::size_t batches_per_epoch() const = 0;
  virtual void reshuffle(common::Rng& rng) = 0;
  virtual const std::vector<std::uint32_t>& order() const = 0;
  virtual void restore_order(std::vector<std::uint32_t> order) = 0;
  /// Materialize batch `index` of the current epoch. Repeatable: reading the
  /// same index twice (peek, then consume) returns identical tensors.
  virtual tensor::Tensor batch(std::size_t index) = 0;
  /// Row-aligned class labels of batch `index` — the conditional pathway's
  /// label plane. Follows the same order() the image batch uses, so labels[i]
  /// annotates batch(index).row(i).
  virtual std::vector<std::uint32_t> batch_labels(std::size_t index) const = 0;
};

/// The historical path: a thin forwarder around data::DataLoader.
class LegacyFeed final : public BatchFeed {
 public:
  LegacyFeed(const data::Dataset& dataset, std::size_t batch_size)
      : loader_(dataset, batch_size) {}

  DataPlane plane() const override { return DataPlane::kLegacy; }
  std::size_t batch_size() const override { return loader_.batch_size(); }
  std::size_t batches_per_epoch() const override { return loader_.batches_per_epoch(); }
  void reshuffle(common::Rng& rng) override { loader_.reshuffle(rng); }
  const std::vector<std::uint32_t>& order() const override { return loader_.order(); }
  void restore_order(std::vector<std::uint32_t> order) override {
    loader_.restore_order(std::move(order));
  }
  tensor::Tensor batch(std::size_t index) override { return loader_.batch(index); }
  std::vector<std::uint32_t> batch_labels(std::size_t index) const override {
    return loader_.batch_labels(index);
  }

 private:
  data::DataLoader loader_;
};

/// Store-served batches: batch(i) gathers the epoch order's rows from the
/// shared SampleStore into a fresh tensor, bit-identical to LegacyFeed.
class StoreFeed final : public BatchFeed {
 public:
  StoreFeed(std::shared_ptr<const SampleStore> store, std::size_t batch_size,
            std::vector<std::uint32_t> labels = {});

  DataPlane plane() const override { return DataPlane::kStore; }
  std::size_t batch_size() const override { return batch_size_; }
  std::size_t batches_per_epoch() const override;
  void reshuffle(common::Rng& rng) override;
  const std::vector<std::uint32_t>& order() const override { return shuffle_.order(); }
  void restore_order(std::vector<std::uint32_t> order) override;
  tensor::Tensor batch(std::size_t index) override;
  std::vector<std::uint32_t> batch_labels(std::size_t index) const override;

 private:
  ShuffleService shuffle_;
  std::shared_ptr<const SampleStore> store_;
  std::size_t batch_size_;
  /// Per-sample class labels (copied from the dataset at feed construction);
  /// the store itself only holds the pixel plane.
  std::vector<std::uint32_t> labels_;
};

/// Build the feed `plane` selects. Store feeds intern the process-wide
/// SampleStore for `dataset`.
std::unique_ptr<BatchFeed> make_feed(DataPlane plane, const data::Dataset& dataset,
                                     std::size_t batch_size);

}  // namespace cellgan::datastore
