// SampleStore — the training set every lane, rank and cell reads.
//
// The LBANN data_store idea applied to this codebase: one read-only store per
// process serves every cell's batches, instead of a float copy of the
// training set per process and a subsample copy per dieting cell. A store is
// a copyable handle, and copies share one backing:
//
//   * mapped ("idx"): the raw idx3-ubyte pixel plane stays in the kernel
//     page cache (no heap copy of the bytes), with the labels read beside
//     it; staging normalizes bytes -> [-1, 1] floats with the exact
//     expression data::load_mnist_split uses, so a staged row is
//     bit-identical to the loader's.
//   * borrowed: a view over a float data::Dataset (synthetic stand-ins,
//     downsampled IDX sets, sets a caller resolved); staging is a row copy.
//
// The whole mapped file counts in a process's resident set once its rows
// have been read: the page cache hands out large folios, so about a
// hundred random rows touch most of it. Every process of a machine shares
// those pages.
//
// All read paths are const and thread-safe; feeds on every lane and rank
// read concurrently without synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/dataset.hpp"

namespace cellgan::datastore {

class SampleStore {
 public:
  /// Map an MNIST idx3-ubyte image file and read its idx1-ubyte labels.
  /// Validates — in order, before touching any pixel — that the image file
  /// opens (MissingFileError), is large enough for a header and its declared
  /// payload (TruncatedFileError), carries the idx3 magic and plausible
  /// dimensions (BadMagicError) and declares at least one sample
  /// (EmptyStoreError), that its images are 28x28 (ShapeMismatchError); then
  /// that the labels file opens, is idx1-ubyte, declares one label per image
  /// (ShapeMismatchError), holds them all (TruncatedFileError), and that every
  /// label is a class 0..9 (BadLabelError).
  static SampleStore map_idx(const std::string& images_path,
                             const std::string& labels_path);

  /// Borrow `dataset`'s floats and labels (no copy). Implicit, so every
  /// trainer, feed and Session that takes a store also takes a Dataset;
  /// `dataset` must outlive the store and every copy of it.
  SampleStore(const data::Dataset& dataset);

  std::size_t samples() const { return samples_; }
  std::size_t sample_dim() const { return dim_; }
  bool mmap_backed() const { return mapping_ != nullptr; }
  /// Bytes of this store's mapped file (0 for borrowed floats).
  std::size_t bytes_mapped() const;
  /// One class label per sample.
  std::span<const std::uint32_t> labels() const { return labels_; }

  /// Write sample `row` as `sample_dim()` floats in [-1, 1] to `dst`.
  /// Bit-identical to the IDX loader's normalization. Thread-safe.
  void stage_row(std::size_t row, float* dst) const;

 private:
  struct Mapping;  ///< the mapped image file and the labels read beside it

  SampleStore() = default;

  std::size_t samples_ = 0;
  std::size_t dim_ = 0;
  std::shared_ptr<const Mapping> mapping_;  ///< null for borrowed floats
  /// Mapped backing: the pixel plane inside mapping_.
  const unsigned char* pixels_ = nullptr;
  /// Borrowed backing: rows live in the dataset's tensor.
  const float* floats_ = nullptr;
  std::span<const std::uint32_t> labels_;
};

}  // namespace cellgan::datastore
