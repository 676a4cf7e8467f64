// Binary serialization for inter-rank messages and on-disk genomes.
//
// Fixed little-endian layout (all supported hosts here are little-endian;
// asserted at compile time), length-prefixed containers. ByteWriter grows a
// contiguous buffer; ByteReader is a bounds-checked cursor over a view —
// reading past the end is a contract violation, not UB.
//
// A record's layout is written once, as a field list (see "Field lists"
// below) that an encoder, a decoder and a size counter all walk.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
  void write_vector(const std::vector<T>& values) {
    write<std::uint64_t>(values.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    buffer_.insert(buffer_.end(), p, p + values.size() * sizeof(T));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

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
    CG_EXPECT(count <= remaining() / sizeof(T));  // count * sizeof(T) could wrap
    std::vector<T> values(count);
    // An empty vector's data() may be null, and memcpy with null is UB even
    // for zero bytes.
    if (count > 0) std::memcpy(values.data(), data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return values;
  }

  std::string read_string() {
    const auto count = read<std::uint64_t>();
    CG_EXPECT(count <= remaining());
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

// --- Field lists -----------------------------------------------------------
//
// A record's byte layout is one generic lambda that names its fields in order,
//
//   constexpr auto kTaskFields = [](auto& v, auto& task) {
//     v(task.cell_id);
//     v(task.seed);
//   };
//
// which encode() walks with a FieldWriter, encoded_size() with a counting
// FieldWriter and decode<R>() with a FieldReader. Their rules are the format:
//  - An arithmetic or enum field is written raw; a bool is one byte; a C
//    array is its elements in order. No struct is written as raw bytes, as
//    its padding would be too (common::Rng::State is 48 bytes in memory and
//    41 encoded), so a nested struct's members are listed one by one.
//  - A vector of arithmetic values, and a string, is a u64 count followed by
//    the raw elements; any other vector is a u64 count followed by each
//    element by these rules.
//  - v.blob(x) is a nested record as a u64 length and the bytes of its own
//    serialize(); a null shared pointer is an empty blob, and a vector of
//    records is a u64 count followed by each blob. The list, not the type,
//    says blob: a trivially copyable record is still a blob where it says so.
//  - v.constant(k) writes k, and decoding checks it (magics, versions).
//  - A decoded enum must name a value: its to_string, where it has one, is
//    not "unknown".
// Decoding checks every count against the bytes left before it allocates.

namespace detail {
template <typename T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;
static_assert(sizeof(bool) == 1, "a bool is one byte");
}  // namespace detail

/// Writes a field list's bytes; a Counting writer only counts them.
template <bool Counting>
class FieldWriter {
 public:
  template <detail::Scalar T>
  void operator()(const T& value) { put(&value, sizeof(T)); }

  template <typename T, std::size_t N>
  void operator()(const T (&values)[N]) {
    for (const T& value : values) (*this)(value);
  }

  void operator()(const std::string& text) {
    (*this)(std::uint64_t{text.size()});
    put(text.data(), text.size());
  }

  template <typename T>
  void operator()(const std::vector<T>& values) {
    (*this)(std::uint64_t{values.size()});
    if constexpr (std::is_arithmetic_v<T>) {
      put(values.data(), values.size() * sizeof(T));
    } else {
      for (const T& value : values) (*this)(value);
    }
  }

  template <typename R>
  void blob(const R& record) {
    if constexpr (Counting && requires { record.byte_size(); }) {
      size_ += sizeof(std::uint64_t) + record.byte_size();  // counted, not encoded
    } else {
      (*this)(record.serialize());
    }
  }

  template <typename R>
  void blob(const std::shared_ptr<const R>& record) {
    if (record) {
      blob(*record);
    } else {
      (*this)(std::uint64_t{0});
    }
  }

  template <typename R>
  void blob(const std::vector<R>& records) {
    (*this)(std::uint64_t{records.size()});
    for (const R& record : records) blob(record);
  }

  template <detail::Scalar T>
  void constant(T value) { (*this)(value); }

  void reserve(std::size_t bytes) { out_.reserve(bytes); }
  std::size_t size() const { return size_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put(const void* data, std::size_t bytes) {
    size_ += bytes;
    if constexpr (!Counting) {
      const auto* p = static_cast<const std::uint8_t*>(data);
      out_.insert(out_.end(), p, p + bytes);
    }
  }

  std::vector<std::uint8_t> out_;
  std::size_t size_ = 0;
};

class FieldReader {
 public:
  explicit FieldReader(std::span<const std::uint8_t> bytes) : in_(bytes) {}

  template <detail::Scalar T>
  void operator()(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = in_.read<std::uint8_t>() != 0;
    } else {
      value = in_.read<T>();
    }
    if constexpr (std::is_enum_v<T> && requires { to_string(value); }) {
      CG_EXPECT(std::string_view(to_string(value)) != "unknown");
    }
  }

  template <typename T, std::size_t N>
  void operator()(T (&values)[N]) {
    for (T& value : values) (*this)(value);
  }

  void operator()(std::string& text) { text = in_.read_string(); }

  template <typename T>
  void operator()(std::vector<T>& values) {
    if constexpr (std::is_arithmetic_v<T>) {
      values = in_.read_vector<T>();
    } else {
      values.resize(count());
      for (T& value : values) (*this)(value);
    }
  }

  template <typename R>
  void blob(R& record) { record = R::deserialize(in_.read_vector<std::uint8_t>()); }

  template <typename R>
  void blob(std::shared_ptr<const R>& record) {
    const auto bytes = in_.read_vector<std::uint8_t>();
    record = bytes.empty() ? nullptr : std::make_shared<const R>(R::deserialize(bytes));
  }

  template <typename R>
  void blob(std::vector<R>& records) {
    records.resize(count());
    for (R& record : records) blob(record);
  }

  template <detail::Scalar T>
  void constant(T value) { CG_EXPECT(in_.read<T>() == value); }

  bool exhausted() const { return in_.exhausted(); }

 private:
  /// A count of encoded elements, each of which takes at least a byte.
  std::uint64_t count() {
    const auto n = in_.read<std::uint64_t>();
    CG_EXPECT(n <= in_.remaining());
    return n;
  }

  ByteReader in_;
};

/// The number of bytes encode(record, fields) makes.
template <typename Record, typename Fields>
std::size_t encoded_size(const Record& record, Fields fields) {
  FieldWriter<true> counter;
  fields(counter, record);
  return counter.size();
}

/// The record's bytes, written into one allocation of encoded_size.
template <typename Record, typename Fields>
std::vector<std::uint8_t> encode(const Record& record, Fields fields) {
  FieldWriter<false> writer;
  writer.reserve(encoded_size(record, fields));
  fields(writer, record);
  return writer.take();
}

/// The record that `bytes` hold, every byte of them.
template <typename Record, typename Fields>
Record decode(std::span<const std::uint8_t> bytes, Fields fields) {
  FieldReader reader(bytes);
  Record record;
  fields(reader, record);
  CG_ENSURE(reader.exhausted());
  return record;
}

}  // namespace cellgan::common
