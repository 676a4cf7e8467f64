// StoreFeed — a cell's training batches, staged from the training set's store.
//
// CellTrainer reads every batch through this feed, staged synchronously on
// the calling lane (gather + normalize). Contract, pinned by
// tests/datastore/store_feed_test.cpp against data::DataLoader as the oracle:
//   * construction leaves the identity order, like a fresh DataLoader;
//   * reshuffle() consumes exactly the Rng draws DataLoader::reshuffle does;
//   * batch(i) is repeatable — the trainer peeks an index in
//     evaluate_center_fitness() and reads it again in train();
//   * order()/restore_order() round-trip through checkpoints.
// A dieting cell passes the list of rows it trains on: the feed shuffles
// positions in that list and stages the rows they name, which are the batches
// a DataLoader over a copy of those rows would serve.
// Feeds are single-consumer: all methods are called from the owning trainer's
// thread. Any number of feeds may read one shared store concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "datastore/data_plane.hpp"
#include "datastore/sample_store.hpp"
#include "datastore/shuffle_service.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::datastore {

class StoreFeed {
 public:
  /// Serve `rows` of `store` (every row when `rows` is empty) in batches of
  /// `batch_size`.
  StoreFeed(SampleStore store, std::size_t batch_size,
            std::vector<std::uint32_t> rows = {});

  /// Number of full batches per epoch (the tail partial batch is dropped).
  std::size_t batches_per_epoch() const;
  void reshuffle(common::Rng& rng);
  /// The epoch order over positions in the served rows, for checkpointing.
  const std::vector<std::uint32_t>& order() const { return shuffle_.order(); }
  void restore_order(std::vector<std::uint32_t> order);
  /// Materialize batch `index` of the current epoch. Repeatable: reading the
  /// same index twice (peek, then consume) returns identical tensors.
  tensor::Tensor batch(std::size_t index) const;
  /// Row-aligned class labels of batch `index`: labels[i] annotates
  /// batch(index).row(i).
  std::vector<std::uint32_t> batch_labels(std::size_t index) const;

 private:
  /// The store row at `position` of the served rows.
  std::size_t row(std::size_t position) const {
    return rows_.empty() ? position : rows_[position];
  }

  SampleStore store_;
  std::vector<std::uint32_t> rows_;
  ShuffleService shuffle_;
  std::size_t batch_size_;
};

/// A feed over every row of `dataset`'s floats. The plane argument selects
/// nothing; bench/ledger/ledger.cpp:800 passes one until ROADMAP item 1
/// stops it naming the data plane.
std::unique_ptr<StoreFeed> make_feed(DataPlane plane, const data::Dataset& dataset,
                                     std::size_t batch_size);

}  // namespace cellgan::datastore
