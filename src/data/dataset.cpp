#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/log.hpp"
#include "data/idx.hpp"

namespace cellgan::data {

Dataset Dataset::slice(std::size_t begin, std::size_t end) const {
  CG_EXPECT(begin <= end && end <= size());
  Dataset out;
  out.images = images.slice_rows(begin, end);
  out.labels.assign(labels.begin() + begin, labels.begin() + end);
  return out;
}

std::vector<std::uint32_t> subsample_rows(std::size_t size, std::size_t count,
                                          common::Rng& rng) {
  CG_EXPECT(count <= size);
  std::vector<std::uint32_t> rows(size);
  for (std::size_t i = 0; i < size; ++i) rows[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(rows);
  rows.resize(count);
  rows.shrink_to_fit();
  return rows;
}

namespace {

/// Load one image/label pair. A label outside the classes sets `bad_label`
/// to a message naming the file and the first bad index.
bool load_idx_pair(const std::string& image_path, const std::string& label_path,
                   Dataset& out, std::string& bad_label) {
  IdxImages raw;
  std::vector<std::uint8_t> raw_labels;
  if (!read_idx_images(image_path, raw) || !read_idx_labels(label_path, raw_labels)) {
    return false;
  }
  if (raw.count != raw_labels.size() || raw.rows != kImageSide || raw.cols != kImageSide) {
    common::log_warn() << "idx: unexpected shape in " << image_path;
    return false;
  }
  for (std::size_t i = 0; i < raw_labels.size(); ++i) {
    if (raw_labels[i] >= kNumClasses) {
      bad_label = "'" + label_path + "' holds label " + std::to_string(raw_labels[i]) +
                  " at index " + std::to_string(i) + ", outside the classes 0-9";
      return false;
    }
  }
  out.images = tensor::Tensor(raw.count, kImageDim);
  out.labels.assign(raw_labels.begin(), raw_labels.end());
  for (std::size_t i = 0; i < raw.count; ++i) {
    auto row = out.images.row_span(i);
    for (std::size_t j = 0; j < kImageDim; ++j) {
      // bytes 0..255 -> [-1, 1]
      row[j] = static_cast<float>(raw.pixels[i * kImageDim + j]) / 127.5f - 1.0f;
    }
  }
  return true;
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

}  // namespace

bool mnist_idx_present(const std::string& dir, std::string* error) {
  const char* names[] = {"train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                         "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"};
  std::string missing;
  for (const char* name : names) {
    if (!file_exists(dir + "/" + name)) {
      if (!missing.empty()) missing += ", ";
      missing += name;
    }
  }
  if (missing.empty()) return true;
  if (error != nullptr) {
    *error = "MNIST IDX files missing under '" + dir + "': " + missing;
  }
  return false;
}

std::optional<Dataset> load_mnist_split(const std::string& dir, MnistSplit split,
                                        std::string* error) {
  const bool train = split == MnistSplit::kTrain;
  const std::string prefix = dir + (train ? "/train" : "/t10k");
  Dataset out;
  std::string bad_label;
  if (load_idx_pair(prefix + "-images-idx3-ubyte", prefix + "-labels-idx1-ubyte", out,
                    bad_label)) {
    return out;
  }
  if (error != nullptr) {
    const std::string pair = std::string("MNIST IDX ") + (train ? "train" : "test") +
                             " pair under '" + dir + "'";
    if (!bad_label.empty()) {
      *error = pair + ": " + bad_label;
    } else if (train) {
      *error = pair + " is unreadable or has an unexpected shape (want " +
               std::to_string(kImageSide) + "x" + std::to_string(kImageSide) +
               " images with matching label count)";
    } else {
      *error = pair + " is unreadable or has an unexpected shape";
    }
  }
  return std::nullopt;
}

std::optional<std::pair<Dataset, Dataset>> load_mnist_idx(const std::string& dir,
                                                          std::string* error) {
  if (!mnist_idx_present(dir, error)) return std::nullopt;
  auto train = load_mnist_split(dir, MnistSplit::kTrain, error);
  if (!train) return std::nullopt;
  auto test = load_mnist_split(dir, MnistSplit::kTest, error);
  if (!test) return std::nullopt;
  return std::make_pair(std::move(*train), std::move(*test));
}

Dataset downsampled(const Dataset& dataset, std::size_t new_side) {
  const std::size_t old_dim = dataset.images.cols();
  const auto old_side = static_cast<std::size_t>(std::lround(std::sqrt(
      static_cast<double>(old_dim))));
  CG_EXPECT(old_side * old_side == old_dim);
  CG_EXPECT(new_side >= 1 && new_side <= old_side);
  if (new_side == old_side) return dataset;

  Dataset out;
  out.labels = dataset.labels;
  out.images = tensor::Tensor(dataset.size(), new_side * new_side);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    downsample_image(dataset.images.row_span(i), old_side, out.images.row_span(i),
                     new_side);
  }
  return out;
}

void downsample_image(std::span<const float> image, std::size_t old_side,
                      std::span<float> out, std::size_t new_side) {
  CG_EXPECT(image.size() == old_side * old_side && out.size() == new_side * new_side);
  CG_EXPECT(new_side >= 1 && new_side <= old_side);
  const double scale = static_cast<double>(old_side) / static_cast<double>(new_side);
  for (std::size_t ty = 0; ty < new_side; ++ty) {
    const auto y0 = static_cast<std::size_t>(ty * scale);
    const auto y1 = std::min(old_side, static_cast<std::size_t>((ty + 1) * scale) + 1);
    for (std::size_t tx = 0; tx < new_side; ++tx) {
      const auto x0 = static_cast<std::size_t>(tx * scale);
      const auto x1 = std::min(old_side, static_cast<std::size_t>((tx + 1) * scale) + 1);
      double acc = 0.0;
      for (std::size_t y = y0; y < y1; ++y) {
        for (std::size_t x = x0; x < x1; ++x) acc += image[y * old_side + x];
      }
      out[ty * new_side + tx] =
          static_cast<float>(acc / static_cast<double>((y1 - y0) * (x1 - x0)));
    }
  }
}

}  // namespace cellgan::data
