// Read-only memory mapping with named errors.
//
// The sample store keeps the IDX pixel plane as the kernel's page-cache copy
// instead of a heap duplicate: one MappedFile per image file, shared by every
// copy of the store in the process. PROT_READ means a stray write through the
// mapping faults instead of corrupting training data.
#pragma once

#include <cstddef>
#include <string>

namespace cellgan::datastore {

class MappedFile {
 public:
  /// Map `path` read-only in its entirety. Throws MissingFileError when the
  /// file cannot be opened, MappingError when fstat/mmap fail.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  void unmap() noexcept;

  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cellgan::datastore
