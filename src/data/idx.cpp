#include "data/idx.hpp"

#include <cstdio>
#include <memory>

#include "common/log.hpp"

namespace cellgan::data {

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;  // idx3, ubyte
constexpr std::uint32_t kLabelsMagic = 0x00000801;  // idx1, ubyte

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool read_u32_be(std::FILE* f, std::uint32_t& value) {
  std::uint8_t b[4];
  if (std::fread(b, 1, 4, f) != 4) return false;
  value = (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
          (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
  return true;
}

bool write_u32_be(std::FILE* f, std::uint32_t value) {
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(value >> 24),
                             static_cast<std::uint8_t>(value >> 16),
                             static_cast<std::uint8_t>(value >> 8),
                             static_cast<std::uint8_t>(value)};
  return std::fwrite(b, 1, 4, f) == 4;
}

/// Actual byte size of the (already-open) file, or -1 on seek failure.
long file_size(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long size = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return size;
}

}  // namespace

bool read_idx_images(const std::string& path, IdxImages& out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::uint32_t magic = 0;
  if (!read_u32_be(f.get(), magic) || magic != kImagesMagic) {
    common::log_warn() << "idx: bad image magic in " << path;
    return false;
  }
  if (!read_u32_be(f.get(), out.count) || !read_u32_be(f.get(), out.rows) ||
      !read_u32_be(f.get(), out.cols)) {
    common::log_warn() << "idx: truncated image header in " << path;
    return false;
  }
  // Validate the declared shape against the real file size BEFORE allocating:
  // a truncated download (or a corrupt count field) must be a named error,
  // not a bad_alloc or a silent short read.
  const std::size_t total =
      std::size_t{out.count} * out.rows * out.cols;
  const long size = file_size(f.get());
  const std::size_t expected = 16 + total;
  if (size < 0 || static_cast<std::size_t>(size) < expected) {
    common::log_warn() << "idx: " << path << " is truncated: header declares "
                       << out.count << " images of " << out.rows << "x"
                       << out.cols << " (" << expected << " bytes) but the file"
                       << " has " << size << " bytes";
    return false;
  }
  out.pixels.resize(total);
  return std::fread(out.pixels.data(), 1, total, f.get()) == total;
}

bool read_idx_labels(const std::string& path, std::vector<std::uint8_t>& out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::uint32_t magic = 0, count = 0;
  if (!read_u32_be(f.get(), magic) || magic != kLabelsMagic) {
    common::log_warn() << "idx: bad label magic in " << path;
    return false;
  }
  if (!read_u32_be(f.get(), count)) {
    common::log_warn() << "idx: truncated label header in " << path;
    return false;
  }
  const long size = file_size(f.get());
  const std::size_t expected = 8 + std::size_t{count};
  if (size < 0 || static_cast<std::size_t>(size) < expected) {
    common::log_warn() << "idx: " << path << " is truncated: header declares "
                       << count << " labels (" << expected << " bytes) but the"
                       << " file has " << size << " bytes";
    return false;
  }
  out.resize(count);
  // fread/fwrite take nonnull buffers, and an empty vector's data() may be null.
  return count == 0 || std::fread(out.data(), 1, count, f.get()) == count;
}

bool write_idx_images(const std::string& path, const IdxImages& images) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!write_u32_be(f.get(), kImagesMagic) || !write_u32_be(f.get(), images.count) ||
      !write_u32_be(f.get(), images.rows) || !write_u32_be(f.get(), images.cols)) {
    return false;
  }
  return images.pixels.empty() ||
         std::fwrite(images.pixels.data(), 1, images.pixels.size(), f.get()) ==
             images.pixels.size();
}

bool write_idx_labels(const std::string& path, const std::vector<std::uint8_t>& labels) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!write_u32_be(f.get(), kLabelsMagic) ||
      !write_u32_be(f.get(), static_cast<std::uint32_t>(labels.size()))) {
    return false;
  }
  return labels.empty() ||
         std::fwrite(labels.data(), 1, labels.size(), f.get()) == labels.size();
}

}  // namespace cellgan::data
