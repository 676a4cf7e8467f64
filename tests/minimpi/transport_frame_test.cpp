// Wire-format and delivery-validation coverage for the transport seam:
// pinned frame bytes (from the test encoder and from a TCP sender on a
// loopback socket), header decode round trips, every malformed-frame class
// (truncated header, bad magic, oversized length, wrong context id /
// destination), the deadline-aware mailbox pop, and the InProc path behind
// the Transport interface. One process, no fork — runs under ASan on every
// tier-1 pass.
#include "minimpi/transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "minimpi/bootstrap.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/errors.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/tcp_transport.hpp"
#include "testsupport/frame_codec.hpp"

namespace cellgan::minimpi {
namespace {

using testsupport::encode_frame;

Frame sample_frame() {
  Frame frame;
  frame.context_key = 0x1122334455667788ULL;
  frame.src_rank = 3;
  frame.dst_rank = 1;
  frame.tag = -6;  // internal tags must survive the wire too
  frame.arrival_vt = 12.75;
  frame.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  return frame;
}

/// sample_frame() on the wire, field by field: magic "CGF1", context key,
/// src, dst, tag, arrival_vt 12.75 as IEEE-754 bits, payload length and the
/// six payload bytes, every integer little-endian.
constexpr const char* kSampleFrameWireHex =
    "43474631"          // magic
    "8877665544332211"  // context_key
    "03000000"          // src_rank
    "01000000"          // dst_rank
    "faffffff"          // tag -6
    "0000000000802940"  // arrival_vt 12.75
    "0600000000000000"  // payload length
    "deadbeef0042";     // payload

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char digits[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    out += digits;
  }
  return out;
}

TEST(TransportFrameTest, WireBytesOfAFixedFrameArePinned) {
  EXPECT_EQ(hex(encode_frame(sample_frame())), kSampleFrameWireHex);
}

TEST(TransportFrameTest, TcpSenderPutsThePinnedBytesOnTheSocket) {
  // The test plays rank 0 of a two-rank world: it runs the bootstrap
  // handshake, then reads the raw bytes rank 1's transport writes for one
  // frame — header and payload from one write_frame.
  std::string error;
  const int listen_fd = listen_on(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const Endpoint rendezvous = local_endpoint_of(listen_fd);
  const Frame sample = sample_frame();
  std::vector<std::uint8_t> wire(kFrameHeaderBytes + sample.payload.size());
  bool read_all = false;
  std::thread rank0([&] {
    try {
      const Mesh mesh = bootstrap_mesh(listen_fd, 0, 2, rendezvous, 10.0);
      read_all = read_exact(mesh.peer_fds[1], wire.data(), wire.size());
      ::close(mesh.peer_fds[1]);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
    ::close(listen_fd);
  });
  {
    TcpTransportOptions options;
    options.world_size = 2;
    options.rank = 1;
    options.rendezvous = rendezvous.to_string();
    options.timeout_s = 10.0;
    TcpTransport transport(options);
    transport.set_sink([](Frame) {});
    transport.start();
    OutboundFrame frame;
    static_cast<FrameHeader&>(frame) = sample;
    frame.payload = share_payload(std::span<const std::uint8_t>(sample.payload));
    transport.send(0, std::move(frame));
    rank0.join();
  }
  ASSERT_TRUE(read_all);
  EXPECT_EQ(hex(wire), kSampleFrameWireHex);
}

TEST(TransportFrameTest, HeaderRoundTripsExactly) {
  const Frame frame = sample_frame();
  const auto wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + frame.payload.size());

  Frame decoded;
  std::uint64_t payload_len = 0;
  ASSERT_EQ(decode_frame_header(wire, &decoded, &payload_len),
            FrameDecodeStatus::kOk);
  EXPECT_EQ(decoded.context_key, frame.context_key);
  EXPECT_EQ(decoded.src_rank, frame.src_rank);
  EXPECT_EQ(decoded.dst_rank, frame.dst_rank);
  EXPECT_EQ(decoded.tag, frame.tag);
  EXPECT_EQ(decoded.arrival_vt, frame.arrival_vt);
  EXPECT_EQ(payload_len, frame.payload.size());
  EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                         wire.begin() + static_cast<long>(kFrameHeaderBytes)));
}

TEST(TransportFrameTest, EmptyPayloadRoundTrips) {
  Frame frame;
  frame.tag = 7;
  const auto wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  Frame decoded;
  std::uint64_t payload_len = 99;
  ASSERT_EQ(decode_frame_header(wire, &decoded, &payload_len),
            FrameDecodeStatus::kOk);
  EXPECT_EQ(payload_len, 0u);
  EXPECT_EQ(decoded.tag, 7);
}

TEST(TransportFrameTest, TruncatedHeaderNeedsMoreData) {
  const auto wire = encode_frame(sample_frame());
  Frame decoded;
  std::uint64_t payload_len = 0;
  for (std::size_t cut = 0; cut < kFrameHeaderBytes; cut += 7) {
    EXPECT_EQ(decode_frame_header(std::span(wire.data(), cut), &decoded,
                                  &payload_len),
              FrameDecodeStatus::kNeedMore)
        << "with " << cut << " bytes";
  }
}

TEST(TransportFrameTest, BadMagicIsRejected) {
  auto wire = encode_frame(sample_frame());
  wire[0] ^= 0xff;
  Frame decoded;
  std::uint64_t payload_len = 0;
  EXPECT_EQ(decode_frame_header(wire, &decoded, &payload_len),
            FrameDecodeStatus::kBadMagic);
}

TEST(TransportFrameTest, OversizedLengthIsRejected) {
  auto wire = encode_frame(sample_frame());
  // Corrupt the payload-length field (bytes 32..39) to an absurd value.
  for (std::size_t i = 32; i < 40; ++i) wire[i] = 0xff;
  Frame decoded;
  std::uint64_t payload_len = 0;
  EXPECT_EQ(decode_frame_header(wire, &decoded, &payload_len),
            FrameDecodeStatus::kOversized);
}

/// Captures outbound frames instead of moving them anywhere: lets the tests
/// drive a distributed-mode Runtime without sockets or peer processes.
class CapturingTransport final : public Transport {
 public:
  void send(int dst_world_rank, OutboundFrame frame) override {
    sent.emplace_back(dst_world_rank, std::move(frame));
  }
  const char* name() const override { return "capture"; }

  std::vector<std::pair<int, OutboundFrame>> sent;
};

TEST(TransportFrameTest, DistributedRuntimeRoutesRemoteSendsThroughTransport) {
  auto transport = std::make_unique<CapturingTransport>();
  CapturingTransport* captured = transport.get();
  Runtime runtime(/*world_size=*/3, /*local_rank=*/1, std::move(transport));

  Message message;
  message.source = 1;
  message.tag = 42;
  message.payload = {1, 2, 3};
  runtime.route(/*context_id=*/0, /*dst_local_rank=*/2, std::move(message));
  ASSERT_EQ(captured->sent.size(), 1u);
  EXPECT_EQ(captured->sent[0].first, 2);          // world rank of WORLD rank 2
  EXPECT_EQ(captured->sent[0].second.context_key, 0u);  // WORLD key
  EXPECT_EQ(captured->sent[0].second.tag, 42);
  EXPECT_EQ(captured->sent[0].second.bytes().size(), 3u);
}

TEST(TransportFrameTest, WrongContextIdIsQuarantinedNotDelivered) {
  Runtime runtime(/*world_size=*/2, /*local_rank=*/0,
                  std::make_unique<CapturingTransport>());
  Frame stray;
  stray.context_key = 0xbadbadbadULL;  // no such communicator
  stray.src_rank = 1;
  stray.dst_rank = 0;
  runtime.ingest(std::move(stray));
  EXPECT_EQ(runtime.pending_frames(), 1u);
  // A well-addressed WORLD frame still flows normally around the stray.
  Frame good;
  good.context_key = 0;
  good.src_rank = 1;
  good.dst_rank = 0;
  good.tag = 5;
  runtime.ingest(std::move(good));
  EXPECT_TRUE(runtime.context(0).mailboxes[0]->probe(1, 5));
  EXPECT_EQ(runtime.pending_frames(), 1u);
}

TEST(TransportFrameTest, MisaddressedFramesRaiseTransportError) {
  Runtime runtime(/*world_size=*/2, /*local_rank=*/0,
                  std::make_unique<CapturingTransport>());
  Frame out_of_range;
  out_of_range.context_key = 0;
  out_of_range.dst_rank = 9;  // WORLD has 2 members
  EXPECT_THROW(runtime.ingest(std::move(out_of_range)), TransportError);

  Frame wrong_rank;
  wrong_rank.context_key = 0;
  wrong_rank.dst_rank = 1;  // world rank 1 is not hosted by this process
  EXPECT_THROW(runtime.ingest(std::move(wrong_rank)), TransportError);
}

TEST(TransportFrameTest, PopUntilHonorsDeadlineAndDelivery) {
  Mailbox mailbox;
  const auto short_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_FALSE(mailbox.pop_until(0, 1, short_deadline).has_value());

  std::thread producer([&mailbox] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Message message;
    message.source = 0;
    message.tag = 1;
    mailbox.push(std::move(message));
  });
  const auto generous_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto delivered = mailbox.pop_until(0, 1, generous_deadline);
  producer.join();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->tag, 1);
}

TEST(TransportFrameTest, RecvTimeoutIsANamedError) {
  Runtime runtime(/*world_size=*/1);
  runtime.run([](Comm& world) {
    try {
      world.recv_timeout(kAnySource, 3, 0.05);
      FAIL() << "expected TimeoutError";
    } catch (const TimeoutError& e) {
      EXPECT_NE(std::string(e.what()).find("tag=3"), std::string::npos);
    }
  });
}

TEST(TransportFrameTest, InProcSendsStillDeliverBitIdentically) {
  // The refactor contract: with the InProcTransport behind Runtime::route,
  // payloads, sources, tags and arrival stamps reach the destination mailbox
  // exactly as the historical direct push did.
  Runtime runtime(/*world_size=*/2);
  runtime.run([](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<std::uint8_t> payload = {9, 8, 7};
      world.send(1, 11, payload);
    } else {
      const Message m = world.recv(0, 11);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 11);
      EXPECT_EQ(m.arrival_vt, 0.0);  // net model off
      EXPECT_EQ(m.payload, (std::vector<std::uint8_t>{9, 8, 7}));
    }
  });
}

}  // namespace
}  // namespace cellgan::minimpi
