#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace cellgan::common {
namespace {

TEST(SerializeTest, ScalarRoundtrip) {
  ByteWriter w;
  w.write<std::uint32_t>(0xdeadbeef);
  w.write<double>(3.14159);
  w.write<std::int8_t>(-7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.14159);
  EXPECT_EQ(r.read<std::int8_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, VectorRoundtrip) {
  ByteWriter w;
  const std::vector<float> values{1.0f, -2.5f, 3.25f};
  w.write_vector(values);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vector<float>(), values);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, EmptyVectorRoundtrip) {
  ByteWriter w;
  w.write_vector(std::vector<std::uint64_t>{});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.read_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, StringRoundtrip) {
  ByteWriter w;
  w.write_string("hello world");
  w.write_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_string(), "");
}

TEST(SerializeTest, MixedSequenceRoundtrip) {
  ByteWriter w;
  w.write<std::uint16_t>(7);
  w.write_string("abc");
  w.write_vector(std::vector<double>{1.5, 2.5});
  w.write<bool>(true);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint16_t>(), 7);
  EXPECT_EQ(r.read_string(), "abc");
  EXPECT_EQ(r.read_vector<double>(), (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(r.read<bool>());
}

TEST(SerializeTest, SizeTracksContent) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.write<std::uint64_t>(1);
  EXPECT_EQ(w.size(), 8u);
  w.write_vector(std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(w.size(), 8u + 8u + 2 * sizeof(float));
}

TEST(SerializeTest, RemainingCountsDown) {
  ByteWriter w;
  w.write<std::uint32_t>(1);
  w.write<std::uint32_t>(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.read<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeDeathTest, ReadPastEndAborts) {
  ByteWriter w;
  w.write<std::uint16_t>(3);
  EXPECT_DEATH(
      {
        ByteReader r(w.bytes());
        (void)r.read<std::uint64_t>();
      },
      "precondition");
}

TEST(SerializeDeathTest, TruncatedVectorAborts) {
  ByteWriter w;
  w.write<std::uint64_t>(1000);  // claims 1000 floats, provides none
  EXPECT_DEATH(
      {
        ByteReader r(w.bytes());
        (void)r.read_vector<float>();
      },
      "precondition");
}

TEST(SerializeDeathTest, WrappingVectorCountAborts) {
  // 2^62 floats are 2^64 bytes: count * sizeof(float) wraps to 0.
  ByteWriter w;
  w.write<std::uint64_t>(std::uint64_t{1} << 62);
  w.write<std::uint64_t>(0);
  EXPECT_DEATH(
      {
        ByteReader r(w.bytes());
        (void)r.read_vector<float>();
      },
      "precondition");
}

TEST(SerializeDeathTest, WrappingStringCountAborts) {
  // The position after the count plus this count wraps past 2^64.
  ByteWriter w;
  w.write<std::uint64_t>(std::numeric_limits<std::uint64_t>::max() - 3);
  w.write<std::uint64_t>(0);
  EXPECT_DEATH(
      {
        ByteReader r(w.bytes());
        (void)r.read_string();
      },
      "precondition");
}

TEST(SerializeTest, TakeMovesBufferOut) {
  ByteWriter w;
  w.write<std::uint32_t>(5);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(SerializeTest, ExtremeValuesSurvive) {
  ByteWriter w;
  w.write(std::numeric_limits<double>::max());
  w.write(std::numeric_limits<double>::lowest());
  w.write(std::numeric_limits<std::uint64_t>::max());
  ByteReader r(w.bytes());
  EXPECT_DOUBLE_EQ(r.read<double>(), std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(r.read<double>(), std::numeric_limits<double>::lowest());
  EXPECT_EQ(r.read<std::uint64_t>(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace cellgan::common
