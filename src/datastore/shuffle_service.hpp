// ShuffleService — deterministic epoch-order management.
//
// The one shuffle implementation in the system is common::Rng::shuffle
// (Fisher-Yates); both data::DataLoader (the classifier's loader and the
// feed tests' oracle) and this service delegate to it, so a StoreFeed seeded
// like a DataLoader draws bit-identical epoch orders. The order is exposed
// for checkpointing exactly like the loader's: a resumed run restores the
// interrupted epoch's permutation and cursor and replays the same batches.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace cellgan::datastore {

class ShuffleService {
 public:
  /// Identity order over `samples` indices (matching a fresh DataLoader).
  explicit ShuffleService(std::size_t samples);

  /// Draw a new epoch order. Delegates to common::Rng::shuffle — the same
  /// Fisher-Yates DataLoader consumes, one uniform_int draw per
  /// element, so the caller's Rng stream advances identically.
  void reshuffle(common::Rng& rng);

  const std::vector<std::uint32_t>& order() const { return order_; }
  void restore(std::vector<std::uint32_t> order) { order_ = std::move(order); }

 private:
  std::vector<std::uint32_t> order_;
};

}  // namespace cellgan::datastore
