// SampleStore — the training set every lane, rank and cell reads.
//
// The LBANN data_store idea applied to this codebase: one read-only store per
// process serves every cell's batches, instead of a float copy of the
// training set per process and a subsample copy per dieting cell. A store is
// a copyable handle, and copies share one backing:
//
//   * file ("idx"): an open descriptor on the idx3-ubyte image file, with the
//     labels read beside it. Staging reads a row's bytes with one pread
//     (a range of rows, kRowsPerRead rows per pread) and normalizes them
//     through pixel_table(), the expression data::load_mnist_split uses, so
//     a staged row is bit-identical to the loader's.
//   * borrowed: a view over a float data::Dataset (synthetic stand-ins,
//     downsampled IDX sets, sets a caller resolved); staging is a row copy.
//
// A file store holds no pixels: a process's resident set grows by the rows
// it stages, not by the file, and the page cache keeps one copy of the file
// for every process of a machine. A file that shrinks after it was opened
// fails the next read past its end with a TruncatedFileError naming it.
//
// All read paths are const and thread-safe (pread moves no shared file
// offset); feeds on every lane and rank read concurrently without
// synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/dataset.hpp"

namespace cellgan::datastore {

/// The float each pixel byte stages to: entry b is
/// static_cast<float>(b) / 127.5f - 1.0f, data::load_mnist_split's own
/// expression, so staged rows keep its bits.
const std::array<float, 256>& pixel_table();

class SampleStore {
 public:
  /// Open an MNIST idx3-ubyte image file and read its idx1-ubyte labels.
  /// Validates — in order, before reading any pixel — that the image file
  /// opens (MissingFileError), is large enough for a header and its declared
  /// payload (TruncatedFileError), carries the idx3 magic and plausible
  /// dimensions (BadMagicError) and declares at least one sample
  /// (EmptyStoreError), that its images are 28x28 (ShapeMismatchError); then
  /// that the labels file opens, is idx1-ubyte, declares one label per image
  /// (ShapeMismatchError), holds them all (TruncatedFileError), and that every
  /// label is a class 0..9 (BadLabelError). An fstat or read failure is a
  /// ReadError.
  static SampleStore open_idx(const std::string& images_path,
                              const std::string& labels_path);

  /// Borrow `dataset`'s floats and labels (no copy). Implicit, so every
  /// trainer, feed and Session that takes a store also takes a Dataset;
  /// `dataset` must outlive the store and every copy of it.
  SampleStore(const data::Dataset& dataset);

  std::size_t samples() const { return samples_; }
  std::size_t sample_dim() const { return dim_; }
  bool file_backed() const { return file_ != nullptr; }
  /// Bytes of this store's image file when it was opened, header included
  /// (0 for borrowed floats).
  std::size_t file_bytes() const;
  /// One class label per sample.
  std::span<const std::uint32_t> labels() const { return labels_; }

  /// Write sample `row` as `sample_dim()` floats in [-1, 1] to `dst`.
  /// Bit-identical to the IDX loader's normalization. Thread-safe.
  void stage_row(std::size_t row, float* dst) const { stage_rows(row, 1, dst); }
  /// Write the `count` samples from `first` on to `dst`, one after another
  /// (count * sample_dim() floats); a file store reads them with one pread
  /// per kRowsPerRead rows. Throws TruncatedFileError when the file has
  /// shrunk below them and ReadError when the read fails.
  void stage_rows(std::size_t first, std::size_t count, float* dst) const;

  /// Rows a file store reads with one pread (through a buffer on the stack).
  static constexpr std::size_t kRowsPerRead = 16;

 private:
  struct File;  ///< the open image file and the labels read beside it

  SampleStore() = default;

  std::size_t samples_ = 0;
  std::size_t dim_ = 0;
  std::shared_ptr<const File> file_;  ///< null for borrowed floats
  /// Borrowed backing: rows live in the dataset's tensor.
  const float* floats_ = nullptr;
  std::span<const std::uint32_t> labels_;
};

}  // namespace cellgan::datastore
