#include "datastore/batch_feed.hpp"

#include <utility>

#include "common/expect.hpp"

namespace cellgan::datastore {

StoreFeed::StoreFeed(std::shared_ptr<const SampleStore> store, std::size_t batch_size,
                     std::vector<std::uint32_t> labels)
    : shuffle_(store->samples()), store_(std::move(store)), batch_size_(batch_size),
      labels_(std::move(labels)) {
  CG_EXPECT(batch_size_ > 0);
  CG_EXPECT(labels_.empty() || labels_.size() == store_->samples());
}

std::size_t StoreFeed::batches_per_epoch() const {
  return shuffle_.order().size() / batch_size_;
}

void StoreFeed::reshuffle(common::Rng& rng) { shuffle_.reshuffle(rng); }

void StoreFeed::restore_order(std::vector<std::uint32_t> order) {
  shuffle_.restore(std::move(order));
}

tensor::Tensor StoreFeed::batch(std::size_t index) {
  CG_EXPECT(index < batches_per_epoch());
  const std::size_t dim = store_->sample_dim();
  tensor::Tensor out(batch_size_, dim);
  const std::uint32_t* rows = shuffle_.order().data() + index * batch_size_;
  float* dst = out.data().data();
  for (std::size_t i = 0; i < batch_size_; ++i) store_->stage_row(rows[i], dst + i * dim);
  return out;
}

std::vector<std::uint32_t> StoreFeed::batch_labels(std::size_t index) const {
  CG_EXPECT(index < batches_per_epoch());
  CG_EXPECT(!labels_.empty());  // feed built without a label plane
  const auto& order = shuffle_.order();
  std::vector<std::uint32_t> out(batch_size_);
  for (std::size_t i = 0; i < batch_size_; ++i) {
    out[i] = labels_[order[index * batch_size_ + i]];
  }
  return out;
}

std::unique_ptr<BatchFeed> make_feed(DataPlane plane, const data::Dataset& dataset,
                                     std::size_t batch_size) {
  if (plane == DataPlane::kStore) {
    auto store = SampleStore::for_dataset(dataset);
    CG_EXPECT(store->sample_dim() == dataset.images.cols());
    return std::make_unique<StoreFeed>(std::move(store), batch_size, dataset.labels);
  }
  return std::make_unique<LegacyFeed>(dataset, batch_size);
}

}  // namespace cellgan::datastore
