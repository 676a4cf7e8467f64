// SampleStore: mmap ingest validation (every named failure path of the image
// and labels files), staging bit-identity against the IDX loader, borrowed
// floats, and handle copies sharing one mapping.
#include "datastore/sample_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/errors.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::datastore {
namespace {

class SampleStoreTest : public ::testing::Test {
 protected:
  std::string path(const char* name) const { return tmp_.file(name).string(); }

  /// Write a deterministic idx3-ubyte image file with `count` samples.
  std::string write_images(const char* name, std::uint32_t count,
                           std::uint32_t side = 28) {
    data::IdxImages images;
    images.count = count;
    images.rows = side;
    images.cols = side;
    images.pixels.resize(std::size_t{count} * side * side);
    for (std::size_t i = 0; i < images.pixels.size(); ++i) {
      images.pixels[i] = static_cast<std::uint8_t>((i * 7 + 13) % 256);
    }
    const std::string p = path(name);
    EXPECT_TRUE(data::write_idx_images(p, images));
    return p;
  }

  /// Write an idx1-ubyte labels file; returns its path.
  std::string write_labels(const char* name, const std::vector<std::uint8_t>& labels) {
    const std::string p = path(name);
    EXPECT_TRUE(data::write_idx_labels(p, labels));
    return p;
  }

  /// Map `images` with a matching labels file of `count` zeros.
  SampleStore map_with_labels(const std::string& images, std::uint32_t count) {
    return SampleStore::map_idx(images, write_labels("zeros", std::vector<std::uint8_t>(count)));
  }

  testsupport::TempDir tmp_{"cellgan_store"};
};

TEST_F(SampleStoreTest, MapIdxStagesBitIdenticalToLegacyLoader) {
  // Build a complete MNIST-shaped IDX quartet, load it through the legacy
  // data::load_mnist_idx pipeline, and check the store's staged floats match
  // the loader's normalization bit for bit — the foundation of every
  // legacy-vs-store parity guarantee.
  write_images("train-images-idx3-ubyte", 12);
  write_images("t10k-images-idx3-ubyte", 4);
  ASSERT_TRUE(data::write_idx_labels(path("train-labels-idx1-ubyte"),
                                     {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1}));
  ASSERT_TRUE(data::write_idx_labels(path("t10k-labels-idx1-ubyte"), {1, 2, 3, 4}));
  auto loaded = data::load_mnist_idx(tmp_.path().string());
  ASSERT_TRUE(loaded.has_value());
  const data::Dataset& train = loaded->first;

  const SampleStore store = SampleStore::map_idx(path("train-images-idx3-ubyte"),
                                                 path("train-labels-idx1-ubyte"));
  ASSERT_TRUE(store.mmap_backed());
  EXPECT_EQ(store.samples(), 12u);
  EXPECT_EQ(store.sample_dim(), data::kImageDim);
  EXPECT_EQ(store.bytes_mapped(), 16u + 12u * data::kImageDim);
  EXPECT_TRUE(std::equal(store.labels().begin(), store.labels().end(),
                         train.labels.begin(), train.labels.end()));

  std::vector<float> staged(data::kImageDim);
  for (std::size_t row = 0; row < store.samples(); ++row) {
    store.stage_row(row, staged.data());
    const auto expected = train.images.data().subspan(row * data::kImageDim,
                                                      data::kImageDim);
    for (std::size_t j = 0; j < data::kImageDim; ++j) {
      ASSERT_EQ(staged[j], expected[j]) << "row " << row << " col " << j;
    }
  }
}

TEST_F(SampleStoreTest, MissingFileThrowsNamedError) {
  EXPECT_THROW(SampleStore::map_idx(path("nope"), path("nope-labels")), MissingFileError);
}

TEST_F(SampleStoreTest, SmallerThanHeaderThrowsTruncated) {
  std::FILE* f = std::fopen(path("tiny").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("idx", f);
  std::fclose(f);
  EXPECT_THROW(map_with_labels(path("tiny"), 1), TruncatedFileError);
}

TEST_F(SampleStoreTest, EmptyFileThrowsTruncated) {
  std::FILE* f = std::fopen(path("empty").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_THROW(map_with_labels(path("empty"), 1), TruncatedFileError);
}

TEST_F(SampleStoreTest, TruncatedPayloadThrowsTruncated) {
  const std::string p = write_images("trunc", 10);
  const auto full = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, full / 2);
  EXPECT_THROW(map_with_labels(p, 10), TruncatedFileError);
}

TEST_F(SampleStoreTest, BadMagicThrowsNamedError) {
  ASSERT_TRUE(data::write_idx_labels(path("labels"), std::vector<std::uint8_t>(64, 1)));
  EXPECT_THROW(map_with_labels(path("labels"), 64), BadMagicError);
}

TEST_F(SampleStoreTest, ImplausibleDimensionsThrowBadMagic) {
  std::FILE* f = std::fopen(path("dims").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint8_t header[16] = {0, 0, 8, 3, 0, 0, 0, 1,
                                   0xFF, 0xFF, 0xFF, 0xFF,  // rows = 4G
                                   0, 0, 0, 28};
  ASSERT_EQ(std::fwrite(header, 1, 16, f), 16u);
  std::fclose(f);
  EXPECT_THROW(map_with_labels(path("dims"), 1), BadMagicError);
}

TEST_F(SampleStoreTest, ZeroSamplesThrowsEmptyStore) {
  std::FILE* f = std::fopen(path("zero").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint8_t header[16] = {0, 0, 8, 3, 0, 0, 0, 0,  // count = 0
                                   0, 0, 0, 28, 0, 0, 0, 28};
  ASSERT_EQ(std::fwrite(header, 1, 16, f), 16u);
  std::fclose(f);
  EXPECT_THROW(map_with_labels(path("zero"), 1), EmptyStoreError);
}

TEST_F(SampleStoreTest, AdoptStagesDatasetRowsWithoutCopying) {
  const data::Dataset dataset = data::make_synthetic_mnist(8, 21);
  const SampleStore store(dataset);
  EXPECT_FALSE(store.mmap_backed());
  EXPECT_EQ(store.bytes_mapped(), 0u);
  EXPECT_EQ(store.samples(), 8u);
  EXPECT_EQ(store.labels().data(), dataset.labels.data());  // borrowed, not copied
  std::vector<float> staged(store.sample_dim());
  for (std::size_t row = 0; row < store.samples(); ++row) {
    store.stage_row(row, staged.data());
    const auto expected =
        dataset.images.data().subspan(row * store.sample_dim(), store.sample_dim());
    for (std::size_t j = 0; j < store.sample_dim(); ++j) {
      ASSERT_EQ(staged[j], expected[j]);
    }
  }
}

TEST_F(SampleStoreTest, CopiesShareOneMappingThatOutlivesTheOriginal) {
  const std::string images = write_images("shared", 5);
  std::vector<float> from_original(data::kImageDim);
  std::optional<SampleStore> original = map_with_labels(images, 5);
  original->stage_row(4, from_original.data());
  const SampleStore copy = *original;
  EXPECT_EQ(copy.bytes_mapped(), original->bytes_mapped());
  original.reset();  // the copy keeps the mapping alive
  std::vector<float> from_copy(data::kImageDim);
  copy.stage_row(4, from_copy.data());
  EXPECT_EQ(from_copy, from_original);
  EXPECT_EQ(copy.labels().size(), 5u);
}

TEST_F(SampleStoreTest, MapIdxRejectsAMismatchedPair) {
  const std::string images = write_images("images", 9);
  // One label short, as a truncated download leaves it.
  EXPECT_THROW(SampleStore::map_idx(images, write_labels("short", std::vector<std::uint8_t>(8))),
               ShapeMismatchError);
  EXPECT_THROW(SampleStore::map_idx(images, path("missing-labels")), MissingFileError);
  EXPECT_THROW(SampleStore::map_idx(images, images), BadMagicError);
  // A labels header that declares more labels than the file holds.
  const std::string cut = write_labels("cut", std::vector<std::uint8_t>(9));
  std::filesystem::resize_file(cut, 8 + 4);
  EXPECT_THROW(SampleStore::map_idx(images, cut), TruncatedFileError);
  // Images that are not MNIST's 28x28.
  EXPECT_THROW(map_with_labels(write_images("small", 9, 27), 9), ShapeMismatchError);
}

TEST_F(SampleStoreTest, MapIdxNamesTheFirstLabelOutsideTheClasses) {
  const std::string images = write_images("images", 20);
  std::vector<std::uint8_t> labels(20, 3);
  labels[6] = 200;
  labels[13] = 10;
  const std::string bad = write_labels("bad-labels", labels);
  try {
    (void)SampleStore::map_idx(images, bad);
    ADD_FAILURE() << "a label outside 0-9 was accepted";
  } catch (const BadLabelError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(bad), std::string::npos) << message;
    EXPECT_NE(message.find("label 200 at index 6"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace cellgan::datastore
