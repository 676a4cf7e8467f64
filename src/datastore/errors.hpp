// Named failure modes of the sample store's IDX ingest path.
//
// Every error carries the offending path and the concrete mismatch, so a
// misconfigured data directory fails with "which file, what's wrong with it"
// instead of a generic read failure deep inside training setup. The family
// mirrors the named-error style of the minimpi transport (PeerDeathError,
// TimeoutError): callers that want to degrade gracefully catch
// DataStoreError; tests pin the specific subclass per failure mode.
#pragma once

#include <stdexcept>
#include <string>

namespace cellgan::datastore {

/// Base of every datastore failure.
class DataStoreError : public std::runtime_error {
 public:
  explicit DataStoreError(const std::string& message)
      : std::runtime_error(message) {}
};

/// The IDX file does not exist (or cannot be opened at all).
class MissingFileError : public DataStoreError {
 public:
  explicit MissingFileError(const std::string& message)
      : DataStoreError(message) {}
};

/// The file is shorter than its own header claims (truncated download,
/// corrupt header declaring more samples than the bytes on disk).
class TruncatedFileError : public DataStoreError {
 public:
  explicit TruncatedFileError(const std::string& message)
      : DataStoreError(message) {}
};

/// The magic number (or the dimension fields) are not an idx3-ubyte header,
/// or the labels file is not idx1-ubyte.
class BadMagicError : public DataStoreError {
 public:
  explicit BadMagicError(const std::string& message)
      : DataStoreError(message) {}
};

/// A structurally valid file declaring zero samples — nothing to train on.
class EmptyStoreError : public DataStoreError {
 public:
  explicit EmptyStoreError(const std::string& message)
      : DataStoreError(message) {}
};

/// The pair does not describe one MNIST split: images other than 28x28, or a
/// labels file whose count differs from the images'.
class ShapeMismatchError : public DataStoreError {
 public:
  explicit ShapeMismatchError(const std::string& message)
      : DataStoreError(message) {}
};

/// A label outside the ten classes 0..9.
class BadLabelError : public DataStoreError {
 public:
  explicit BadLabelError(const std::string& message)
      : DataStoreError(message) {}
};

/// An fstat or read of an open file failed (an I/O error, a path naming a
/// directory).
class ReadError : public DataStoreError {
 public:
  explicit ReadError(const std::string& message)
      : DataStoreError(message) {}
};

}  // namespace cellgan::datastore
