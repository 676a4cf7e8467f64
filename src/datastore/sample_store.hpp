// SampleStore — the process-wide in-memory sample plane.
//
// The LBANN data_store idea applied to this codebase: instead of every cell
// materializing batches from its own private copy of the training tensor, a
// single read-only store per dataset serves every lane and rank in the
// process. Two backings exist behind one staging API:
//
//   * mmap-backed ("idx"): the raw idx3-ubyte pixel plane stays in the
//     kernel page cache (no heap copy of the bytes); staging normalizes
//     bytes -> [-1, 1] floats with the exact expression the legacy loader
//     used at load time, so a staged batch is bit-identical to a legacy one.
//   * float-backed ("adopted"): a view over an already-resolved float
//     Dataset (synthetic stand-ins, downsampled or dieted subsets); staging
//     is a row copy.
//
// Stores are interned in a process-wide registry keyed by the dataset's
// storage address, so the distributed thread-per-rank backend — every rank in
// one process, all referencing one Dataset — shares one store instead of
// per-rank copies. Registry entries are weak: a store lives exactly as long
// as some feed (or the Session that bound it) holds it.
//
// All read paths are const and thread-safe; feeds on every lane and rank
// read concurrently without synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "datastore/mapped_file.hpp"

namespace cellgan::datastore {

class SampleStore {
 public:
  /// Map an idx3-ubyte image file. Validates — in order, before touching any
  /// pixel — that the file opens (MissingFileError), is large enough for a
  /// header and its declared payload (TruncatedFileError), carries the idx3
  /// magic and plausible dimensions (BadMagicError), and declares at least
  /// one sample (EmptyStoreError).
  static std::shared_ptr<SampleStore> map_idx(const std::string& images_path);

  /// Wrap an already-resolved float dataset (no copy; `dataset` must outlive
  /// the store).
  static std::shared_ptr<SampleStore> adopt(const data::Dataset& dataset);

  /// Interning lookup: the store registered for `dataset`'s storage, creating
  /// (and registering) a float-backed store on first use. Every CellTrainer
  /// feed over the same dataset in this process shares the returned store.
  static std::shared_ptr<SampleStore> for_dataset(const data::Dataset& dataset);

  /// Register an mmap-backed store as the one serving `dataset`: the Session
  /// calls this after load_mnist_idx so feeds stage straight from the mapped
  /// bytes. Throws DataStoreError when the file's shape does not match the
  /// dataset (wrong file for this data). Returns the bound store; the caller
  /// must keep the shared_ptr alive for the binding to persist.
  static std::shared_ptr<SampleStore> bind_idx(const data::Dataset& dataset,
                                               const std::string& images_path);

  std::size_t samples() const { return samples_; }
  std::size_t sample_dim() const { return dim_; }
  bool mmap_backed() const { return mapping_.has_value(); }
  /// Bytes of file kept mapped (0 for adopted float stores).
  std::size_t bytes_mapped() const { return mapping_ ? mapping_->size() : 0; }

  /// Write sample `row` as `sample_dim()` floats in [-1, 1] to `dst`.
  /// Bit-identical to the legacy loader's normalization. Thread-safe.
  void stage_row(std::size_t row, float* dst) const;

 private:
  SampleStore() = default;

  std::size_t samples_ = 0;
  std::size_t dim_ = 0;
  /// mmap backing: pixel plane lives at pixels_ inside mapping_.
  std::optional<MappedFile> mapping_;
  const unsigned char* pixels_ = nullptr;
  /// float backing: rows live in the adopted dataset's tensor.
  const float* floats_ = nullptr;
};

}  // namespace cellgan::datastore
