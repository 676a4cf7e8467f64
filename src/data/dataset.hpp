// Labeled image dataset.
//
// Images are stored as an (n x 784) tensor with pixel values in [-1, 1]
// (matching the generator's tanh output range, as in Lipizzaner's MNIST
// pipeline). Labels are digit classes 0..9.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::data {

inline constexpr std::size_t kImageSide = 28;
inline constexpr std::size_t kImageDim = kImageSide * kImageSide;
inline constexpr std::size_t kNumClasses = 10;

struct Dataset {
  tensor::Tensor images;               // n x 784, values in [-1, 1]
  std::vector<std::uint32_t> labels;   // n entries, 0..9

  std::size_t size() const { return images.rows(); }

  /// Copy of samples [begin, end).
  Dataset slice(std::size_t begin, std::size_t end) const;

  /// Per-class counts (histogram over labels).
  std::vector<std::size_t> class_histogram() const;
};

/// Uniform random choice of `count` of `size` row indices, without
/// replacement: the first `count` entries of a shuffled identity order. Data
/// dieting draws each cell's rows with it.
std::vector<std::uint32_t> subsample_rows(std::size_t size, std::size_t count,
                                          common::Rng& rng);

/// Load the four MNIST IDX files (train-images-idx3-ubyte,
/// train-labels-idx1-ubyte, t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte)
/// from `dir`. On failure returns nullopt and, when `error` is non-null,
/// writes a message naming the missing or malformed files so callers can
/// surface an actionable diagnostic instead of silently falling back.
std::optional<std::pair<Dataset, Dataset>> load_mnist_idx(const std::string& dir,
                                                          std::string* error = nullptr);

/// True when all four MNIST IDX files exist under `dir`; otherwise false
/// with `error` naming the missing ones.
bool mnist_idx_present(const std::string& dir, std::string* error = nullptr);

enum class MnistSplit { kTrain, kTest };

/// Load one split's image/label pair from `dir` (the half of load_mnist_idx
/// a caller needs now); nullopt with `error` set when it is unreadable,
/// misshapen, or holds a label outside 0..9 (the error names the labels file
/// and the first bad index).
std::optional<Dataset> load_mnist_split(const std::string& dir, MnistSplit split,
                                        std::string* error = nullptr);

/// Area-average the square images of a dataset down to new_side x new_side
/// (used to feed reduced architectures in tests and wall-clock benchmarks).
Dataset downsampled(const Dataset& dataset, std::size_t new_side);

/// Area-average one old_side x old_side image into `out`, new_side x
/// new_side: the per-row step of downsampled(), for callers that build a
/// small set row by row.
void downsample_image(std::span<const float> image, std::size_t old_side,
                      std::span<float> out, std::size_t new_side);

}  // namespace cellgan::data
