#include "datastore/batch_feed.hpp"

#include <utility>

#include "common/expect.hpp"

namespace cellgan::datastore {

StoreFeed::StoreFeed(SampleStore store, std::size_t batch_size,
                     std::vector<std::uint32_t> rows)
    : store_(std::move(store)),
      rows_(std::move(rows)),
      shuffle_(rows_.empty() ? store_.samples() : rows_.size()),
      batch_size_(batch_size) {
  CG_EXPECT(batch_size_ > 0);
  CG_EXPECT(shuffle_.order().size() >= batch_size_);
}

std::size_t StoreFeed::batches_per_epoch() const {
  return shuffle_.order().size() / batch_size_;
}

void StoreFeed::reshuffle(common::Rng& rng) { shuffle_.reshuffle(rng); }

void StoreFeed::restore_order(std::vector<std::uint32_t> order) {
  shuffle_.restore(std::move(order));
}

tensor::Tensor StoreFeed::batch(std::size_t index) const {
  CG_EXPECT(index < batches_per_epoch());
  const std::size_t dim = store_.sample_dim();
  tensor::Tensor out(batch_size_, dim);
  const std::uint32_t* positions = shuffle_.order().data() + index * batch_size_;
  float* dst = out.data().data();
  for (std::size_t i = 0; i < batch_size_; ++i) {
    store_.stage_row(row(positions[i]), dst + i * dim);
  }
  return out;
}

std::vector<std::uint32_t> StoreFeed::batch_labels(std::size_t index) const {
  CG_EXPECT(index < batches_per_epoch());
  const auto labels = store_.labels();
  const std::uint32_t* positions = shuffle_.order().data() + index * batch_size_;
  std::vector<std::uint32_t> out(batch_size_);
  for (std::size_t i = 0; i < batch_size_; ++i) out[i] = labels[row(positions[i])];
  return out;
}

std::unique_ptr<StoreFeed> make_feed(DataPlane /*plane*/, const data::Dataset& dataset,
                                     std::size_t batch_size) {
  return std::make_unique<StoreFeed>(dataset, batch_size);
}

}  // namespace cellgan::datastore
