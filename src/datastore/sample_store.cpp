#include "datastore/sample_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/expect.hpp"
#include "datastore/errors.hpp"

namespace cellgan::datastore {

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;  // idx3, ubyte
constexpr std::uint32_t kLabelsMagic = 0x00000801;  // idx1, ubyte
constexpr std::size_t kHeaderBytes = 16;            // magic + count + rows + cols
constexpr std::size_t kLabelsHeaderBytes = 8;       // magic + count
/// Sanity ceiling for one image side; a "dimension" above this is header
/// corruption, not a plausible dataset. Also keeps rows*cols in 32 bits so
/// the size arithmetic below cannot overflow.
constexpr std::uint32_t kMaxSide = 1u << 15;

constexpr std::array<float, 256> kPixelTable = [] {
  std::array<float, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    table[b] = static_cast<float>(b) / 127.5f - 1.0f;
  }
  return table;
}();

std::uint32_t read_u32_be(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::string hex(std::uint32_t value) {
  char text[16];
  std::snprintf(text, sizeof(text), "0x%08x", value);
  return text;
}

/// A read-only descriptor on one file, with the file's size when it opened.
class OpenFile {
 public:
  /// Throws MissingFileError when `path` cannot be opened and ReadError when
  /// fstat fails.
  explicit OpenFile(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
      const int err = errno;
      throw MissingFileError("datastore: cannot open '" + path_ +
                             "': " + std::strerror(err));
    }
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      const int err = errno;
      ::close(fd_);
      throw ReadError("datastore: fstat '" + path_ + "' failed: " + std::strerror(err));
    }
    size_ = static_cast<std::size_t>(st.st_size);
  }
  ~OpenFile() { ::close(fd_); }
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;

  std::size_t size() const { return size_; }

  /// Read the `n` bytes at `offset` into `dst`, looping over partial reads
  /// and EINTR. Throws TruncatedFileError when the file ends first (it shrank
  /// after it was opened) and ReadError on an I/O error.
  void read(std::uint64_t offset, std::size_t n, unsigned char* dst) const {
    while (n > 0) {
      const ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
      if (got > 0) {
        const auto step = static_cast<std::size_t>(got);
        dst += step;
        offset += step;
        n -= step;
      } else if (got == 0) {
        throw TruncatedFileError("datastore: '" + path_ + "' is truncated: it held " +
                                 std::to_string(size_) +
                                 " bytes when opened but now ends before byte " +
                                 std::to_string(offset + n));
      } else if (const int err = errno; err != EINTR) {
        throw ReadError("datastore: reading '" + path_ + "' failed: " + std::strerror(err));
      }
    }
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t size_ = 0;
};

/// The `count` labels of an idx1-ubyte file, each checked to be a class.
std::vector<std::uint32_t> read_labels(const std::string& path, std::uint32_t count) {
  const OpenFile file(path);
  if (file.size() < kLabelsHeaderBytes) {
    throw TruncatedFileError("datastore: '" + path + "' holds " +
                             std::to_string(file.size()) +
                             " bytes, smaller than the 8-byte IDX header");
  }
  unsigned char head[kLabelsHeaderBytes];
  file.read(0, kLabelsHeaderBytes, head);
  const std::uint32_t magic = read_u32_be(head);
  if (magic != kLabelsMagic) {
    throw BadMagicError("datastore: '" + path + "' has magic " + hex(magic) +
                        ", not idx1-ubyte (0x00000801)");
  }
  const std::uint32_t declared = read_u32_be(head + 4);
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
  std::vector<unsigned char> bytes(count);
  file.read(kLabelsHeaderBytes, count, bytes.data());
  std::vector<std::uint32_t> labels(bytes.begin(), bytes.end());
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

const std::array<float, 256>& pixel_table() { return kPixelTable; }

struct SampleStore::File {
  explicit File(const std::string& images_path) : images(images_path) {}

  OpenFile images;
  std::vector<std::uint32_t> labels;
};

SampleStore SampleStore::open_idx(const std::string& images_path,
                                  const std::string& labels_path) {
  // Throws MissingFileError / ReadError.
  auto file = std::make_shared<File>(images_path);
  const OpenFile& images = file->images;
  if (images.size() < kHeaderBytes) {
    throw TruncatedFileError("datastore: '" + images_path + "' holds " +
                             std::to_string(images.size()) +
                             " bytes, smaller than the 16-byte IDX header");
  }
  unsigned char head[kHeaderBytes];
  images.read(0, kHeaderBytes, head);
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

  file->labels = read_labels(labels_path, count);
  SampleStore store;
  store.samples_ = count;
  store.dim_ = static_cast<std::size_t>(row_bytes);
  store.labels_ = file->labels;
  store.file_ = std::move(file);
  return store;
}

SampleStore::SampleStore(const data::Dataset& dataset)
    : samples_(dataset.size()),
      dim_(dataset.images.cols()),
      floats_(dataset.images.data().data()),
      labels_(dataset.labels) {
  CG_EXPECT(dataset.labels.size() == dataset.size());
}

std::size_t SampleStore::file_bytes() const {
  return file_ != nullptr ? file_->images.size() : 0;
}

void SampleStore::stage_rows(std::size_t first, std::size_t count, float* dst) const {
  CG_EXPECT(first <= samples_ && count <= samples_ - first);
  if (file_ == nullptr) {
    std::memcpy(dst, floats_ + first * dim_, count * dim_ * sizeof(float));
    return;
  }
  // A file store's rows are kImageDim bytes (open_idx accepts only 28x28).
  unsigned char bytes[kRowsPerRead * data::kImageDim];
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(kRowsPerRead, count - done) * dim_;
    file_->images.read(kHeaderBytes + std::uint64_t{first + done} * dim_, n, bytes);
    for (std::size_t j = 0; j < n; ++j) dst[j] = kPixelTable[bytes[j]];
    dst += n;
    done += n / dim_;
  }
}

}  // namespace cellgan::datastore
