#include "datastore/sample_store.hpp"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "datastore/errors.hpp"
#include "datastore/mapped_file.hpp"

namespace cellgan::datastore {

struct SampleStore::Mapping {
  MappedFile images;
  std::vector<std::uint32_t> labels;
};

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;  // idx3, ubyte
constexpr std::uint32_t kLabelsMagic = 0x00000801;  // idx1, ubyte
constexpr std::size_t kHeaderBytes = 16;            // magic + count + rows + cols
constexpr std::size_t kLabelsHeaderBytes = 8;       // magic + count
/// Sanity ceiling for one image side; a "dimension" above this is header
/// corruption, not a plausible dataset. Also keeps rows*cols in 32 bits so
/// the size arithmetic below cannot overflow.
constexpr std::uint32_t kMaxSide = 1u << 15;

std::uint32_t read_u32_be(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::string hex(std::uint32_t value) {
  char text[16];
  std::snprintf(text, sizeof(text), "0x%08x", value);
  return text;
}

/// The `count` labels of an idx1-ubyte file, each checked to be a class.
std::vector<std::uint32_t> read_labels(const std::string& path, std::uint32_t count) {
  const MappedFile file(path);  // throws MissingFileError / MappingError
  if (file.size() < kLabelsHeaderBytes) {
    throw TruncatedFileError("datastore: '" + path + "' holds " +
                             std::to_string(file.size()) +
                             " bytes, smaller than the 8-byte IDX header");
  }
  const std::uint32_t magic = read_u32_be(file.data());
  if (magic != kLabelsMagic) {
    throw BadMagicError("datastore: '" + path + "' has magic " + hex(magic) +
                        ", not idx1-ubyte (0x00000801)");
  }
  const std::uint32_t declared = read_u32_be(file.data() + 4);
  if (declared != count) {
    throw ShapeMismatchError("datastore: '" + path + "' declares " +
                             std::to_string(declared) + " labels for " +
                             std::to_string(count) + " images");
  }
  if (file.size() - kLabelsHeaderBytes < count) {
    throw TruncatedFileError("datastore: '" + path + "' is truncated: header declares " +
                             std::to_string(count) + " labels but only " +
                             std::to_string(file.size() - kLabelsHeaderBytes) +
                             " are on disk");
  }
  const unsigned char* bytes = file.data() + kLabelsHeaderBytes;
  std::vector<std::uint32_t> labels(bytes, bytes + count);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= data::kNumClasses) {
      throw BadLabelError("datastore: '" + path + "' holds label " +
                          std::to_string(labels[i]) + " at index " + std::to_string(i) +
                          ", outside the classes 0-9");
    }
  }
  return labels;
}

}  // namespace

SampleStore SampleStore::map_idx(const std::string& images_path,
                                 const std::string& labels_path) {
  MappedFile images(images_path);  // throws MissingFileError / MappingError
  if (images.size() < kHeaderBytes) {
    throw TruncatedFileError("datastore: '" + images_path + "' holds " +
                             std::to_string(images.size()) +
                             " bytes, smaller than the 16-byte IDX header");
  }
  const unsigned char* head = images.data();
  const std::uint32_t magic = read_u32_be(head);
  if (magic != kImagesMagic) {
    throw BadMagicError("datastore: '" + images_path + "' has magic " + hex(magic) +
                        ", not idx3-ubyte (0x00000803)");
  }
  const std::uint32_t count = read_u32_be(head + 4);
  const std::uint32_t rows = read_u32_be(head + 8);
  const std::uint32_t cols = read_u32_be(head + 12);
  if (rows == 0 || cols == 0 || rows > kMaxSide || cols > kMaxSide) {
    throw BadMagicError("datastore: '" + images_path +
                        "' declares implausible image dimensions " +
                        std::to_string(rows) + "x" + std::to_string(cols));
  }
  if (count == 0) {
    throw EmptyStoreError("datastore: '" + images_path +
                          "' declares zero samples");
  }
  // Validate the payload against the real file size before trusting `count`
  // anywhere: division instead of count*rows*cols sidesteps overflow from a
  // garbage header.
  const std::uint64_t row_bytes = std::uint64_t{rows} * cols;
  const std::uint64_t available = images.size() - kHeaderBytes;
  if (count > available / row_bytes) {
    throw TruncatedFileError(
        "datastore: '" + images_path + "' is truncated: header declares " +
        std::to_string(count) + " images of " + std::to_string(row_bytes) +
        " bytes but only " + std::to_string(available) +
        " payload bytes are on disk");
  }
  if (rows != data::kImageSide || cols != data::kImageSide) {
    throw ShapeMismatchError("datastore: '" + images_path + "' holds " +
                             std::to_string(rows) + "x" + std::to_string(cols) +
                             " images, not MNIST's 28x28");
  }

  auto mapping = std::make_shared<Mapping>(
      Mapping{std::move(images), read_labels(labels_path, count)});
  SampleStore store;
  store.samples_ = count;
  store.dim_ = static_cast<std::size_t>(row_bytes);
  store.pixels_ = mapping->images.data() + kHeaderBytes;
  store.labels_ = mapping->labels;
  store.mapping_ = std::move(mapping);
  return store;
}

SampleStore::SampleStore(const data::Dataset& dataset)
    : samples_(dataset.size()),
      dim_(dataset.images.cols()),
      floats_(dataset.images.data().data()),
      labels_(dataset.labels) {
  CG_EXPECT(dataset.labels.size() == dataset.size());
}

std::size_t SampleStore::bytes_mapped() const {
  return mapping_ != nullptr ? mapping_->images.size() : 0;
}

void SampleStore::stage_row(std::size_t row, float* dst) const {
  CG_EXPECT(row < samples_);
  if (pixels_ != nullptr) {
    const unsigned char* src = pixels_ + row * dim_;
    for (std::size_t j = 0; j < dim_; ++j) {
      // bytes 0..255 -> [-1, 1]; must stay the exact expression
      // data::load_mnist_split uses so staged floats are bit-identical.
      dst[j] = static_cast<float>(src[j]) / 127.5f - 1.0f;
    }
  } else {
    std::memcpy(dst, floats_ + row * dim_, dim_ * sizeof(float));
  }
}

}  // namespace cellgan::datastore
