// serve/protocol: codec round-trips and the framed-socket send/recv pair
// (over a socketpair — no server needed), including the failure surface:
// clean EOF vs garbage vs foreign-context frames.
#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "minimpi/transport.hpp"
#include "testsupport/frame_codec.hpp"

namespace cellgan::serve {
namespace {

TEST(ServeProtocol, SampleRequestRoundTrips) {
  SampleRequest request;
  request.request_id = 77;
  request.seed = 0xdeadbeefULL;
  request.count = 64;
  EXPECT_EQ(SampleRequest::deserialize(request.serialize()), request);
}

TEST(ServeProtocol, SampleResponseRoundTrips) {
  SampleResponse response;
  response.request_id = 3;
  response.status = static_cast<std::uint32_t>(SampleStatus::kOk);
  response.rows = 2;
  response.cols = 3;
  response.samples = {1.0f, -2.5f, 0.0f, 4.0f, 5.0f, -6.0f};
  response.batch_requests = 4;
  response.queue_us = 120.5;
  response.forward_us = 800.25;
  EXPECT_EQ(SampleResponse::deserialize(response.serialize()), response);

  SampleResponse failure;
  failure.request_id = 4;
  failure.status = static_cast<std::uint32_t>(SampleStatus::kBadRequest);
  failure.error = "count must be in [1, 4096]";
  EXPECT_EQ(SampleResponse::deserialize(failure.serialize()), failure);
  EXPECT_FALSE(failure.ok());
}

TEST(ServeProtocol, StatsResponseRoundTrips) {
  StatsResponse stats;
  stats.requests = 100;
  stats.samples = 1600;
  stats.batches = 25;
  stats.cache_hits = 99;
  stats.cache_misses = 1;
  stats.cache_evictions = 0;
  stats.rejected = 2;
  stats.uptime_s = 12.5;
  stats.total_queue_us = 1e6;
  stats.total_forward_us = 2e6;
  EXPECT_EQ(StatsResponse::deserialize(stats.serialize()), stats);
}

class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_writer() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(SocketPairTest, SendRecvRoundTripsMessages) {
  SampleRequest request;
  request.request_id = 9;
  request.seed = 1234;
  request.count = 8;
  ASSERT_TRUE(send_message(fds_[0], MsgType::kSampleRequest,
                           request.serialize()));
  ASSERT_TRUE(send_message(fds_[0], MsgType::kStatsRequest, {}));

  Message msg;
  ASSERT_TRUE(recv_message(fds_[1], &msg));
  EXPECT_EQ(msg.type, MsgType::kSampleRequest);
  EXPECT_EQ(SampleRequest::deserialize(msg.payload), request);

  ASSERT_TRUE(recv_message(fds_[1], &msg));
  EXPECT_EQ(msg.type, MsgType::kStatsRequest);
  EXPECT_TRUE(msg.payload.empty());
}

TEST_F(SocketPairTest, CleanEofReturnsFalse) {
  close_writer();
  Message msg;
  EXPECT_FALSE(recv_message(fds_[1], &msg));
}

TEST_F(SocketPairTest, GarbageThrowsProtocolError) {
  const char junk[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n padding padding";
  ASSERT_GT(sizeof(junk), minimpi::kFrameHeaderBytes);
  ASSERT_EQ(::write(fds_[0], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  Message msg;
  EXPECT_THROW(recv_message(fds_[1], &msg), ProtocolError);
}

TEST_F(SocketPairTest, TruncatedHeaderThrowsProtocolError) {
  const std::uint8_t partial[3] = {0x43, 0x47, 0x46};  // frame magic prefix
  ASSERT_EQ(::write(fds_[0], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  close_writer();
  Message msg;
  EXPECT_THROW(recv_message(fds_[1], &msg), ProtocolError);
}

TEST_F(SocketPairTest, ForeignContextKeyThrowsProtocolError) {
  // A syntactically valid minimpi frame that is not serving traffic.
  minimpi::Frame frame;
  frame.context_key = 0x1234;  // not kServeContextKey
  frame.tag = static_cast<std::int32_t>(MsgType::kSampleRequest);
  frame.payload = {1, 2, 3};
  const auto wire = testsupport::encode_frame(frame);
  ASSERT_EQ(::write(fds_[0], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  Message msg;
  EXPECT_THROW(recv_message(fds_[1], &msg), ProtocolError);
}

}  // namespace
}  // namespace cellgan::serve
