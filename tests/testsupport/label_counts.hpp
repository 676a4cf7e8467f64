// Per-class label counts, for tests that check how a dataset or a loader
// spreads its classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"

namespace cellgan::testsupport {

/// How many of `labels` name each of the data::kNumClasses classes.
inline std::vector<std::size_t> label_counts(std::span<const std::uint32_t> labels) {
  std::vector<std::size_t> counts(data::kNumClasses, 0);
  for (const std::uint32_t label : labels) ++counts.at(label);
  return counts;
}

}  // namespace cellgan::testsupport
