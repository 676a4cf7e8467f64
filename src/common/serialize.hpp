// Binary serialization for inter-rank messages and on-disk genomes.
//
// Fixed little-endian layout (all supported hosts here are little-endian;
// asserted at compile time), length-prefixed containers. ByteWriter grows a
// contiguous buffer; ByteReader is a bounds-checked cursor over a view —
// reading past the end is a contract violation, not UB.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"

namespace cellgan::common {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

template <typename T>
concept TriviallySerializable = std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

class ByteWriter {
 public:
  template <TriviallySerializable T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buffer_.insert(buffer_.end(), p, p + sizeof(T));
  }

  template <TriviallySerializable T>
  void write_span(std::span<const T> values) {
    write<std::uint64_t>(values.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    buffer_.insert(buffer_.end(), p, p + values.size_bytes());
  }

  template <TriviallySerializable T>
  void write_vector(const std::vector<T>& values) {
    write_span(std::span<const T>(values));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  /// Make room for `bytes` in total, so a writer that knows its final size
  /// fills one allocation instead of growing by doubling.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <TriviallySerializable T>
  T read() {
    CG_EXPECT(pos_ + sizeof(T) <= data_.size());
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <TriviallySerializable T>
  std::vector<T> read_vector() {
    const auto count = read<std::uint64_t>();
    CG_EXPECT(pos_ + count * sizeof(T) <= data_.size());
    std::vector<T> values(count);
    // An empty vector's data() may be null, and memcpy with null is UB even
    // for zero bytes.
    if (count > 0) std::memcpy(values.data(), data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return values;
  }

  std::string read_string() {
    const auto count = read<std::uint64_t>();
    CG_EXPECT(pos_ + count <= data_.size());
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), count);
    pos_ += count;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cellgan::common
