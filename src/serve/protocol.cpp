#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>

#include "common/serialize.hpp"
#include "minimpi/bootstrap.hpp"
#include "minimpi/transport.hpp"

namespace cellgan::serve {

namespace {
constexpr auto kSampleRequestFields = [](auto& v, auto& request) {
  v(request.request_id);
  v(request.seed);
  v(request.count);
};

constexpr auto kSampleResponseFields = [](auto& v, auto& response) {
  v(response.request_id);
  v(response.status);
  v(response.error);
  v(response.rows);
  v(response.cols);
  v(response.samples);
  v(response.batch_requests);
  v(response.queue_us);
  v(response.forward_us);
};

constexpr auto kStatsResponseFields = [](auto& v, auto& stats) {
  v(stats.requests);
  v(stats.samples);
  v(stats.batches);
  v(stats.cache_hits);
  v(stats.cache_misses);
  v(stats.cache_evictions);
  v(stats.rejected);
  v(stats.uptime_s);
  v(stats.total_queue_us);
  v(stats.total_forward_us);
};
}  // namespace

std::vector<std::uint8_t> SampleRequest::serialize() const {
  return common::encode(*this, kSampleRequestFields);
}

SampleRequest SampleRequest::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<SampleRequest>(bytes, kSampleRequestFields);
}

std::vector<std::uint8_t> SampleResponse::serialize() const {
  return common::encode(*this, kSampleResponseFields);
}

SampleResponse SampleResponse::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<SampleResponse>(bytes, kSampleResponseFields);
}

std::vector<std::uint8_t> StatsResponse::serialize() const {
  return common::encode(*this, kStatsResponseFields);
}

StatsResponse StatsResponse::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<StatsResponse>(bytes, kStatsResponseFields);
}

bool send_message(int fd, MsgType type, std::span<const std::uint8_t> payload) {
  minimpi::FrameHeader header;
  header.context_key = kServeContextKey;
  header.tag = static_cast<std::int32_t>(type);
  return minimpi::write_frame(fd, header, payload);
}

bool recv_message(int fd, Message* out) {
  std::uint8_t header[minimpi::kFrameHeaderBytes];
  std::size_t got = 0;
  if (!minimpi::read_exact(fd, header, sizeof(header), &got)) {
    if (got == 0) return false;  // orderly close between messages
    throw ProtocolError("serve: connection lost mid-header (" +
                        std::to_string(got) + " of " +
                        std::to_string(sizeof(header)) + " bytes)");
  }
  minimpi::FrameHeader frame;
  std::uint64_t payload_len = 0;
  const auto status = minimpi::decode_frame_header(
      std::span<const std::uint8_t>(header, sizeof(header)), &frame,
      &payload_len);
  if (status != minimpi::FrameDecodeStatus::kOk) {
    throw ProtocolError(std::string("serve: bad frame header: ") +
                        minimpi::to_string(status));
  }
  if (frame.context_key != kServeContextKey) {
    throw ProtocolError("serve: frame for foreign context key");
  }
  out->type = static_cast<MsgType>(frame.tag);
  out->payload.resize(payload_len);
  if (payload_len > 0 &&
      !minimpi::read_exact(fd, out->payload.data(), out->payload.size())) {
    throw ProtocolError("serve: connection lost mid-payload");
  }
  return true;
}

}  // namespace cellgan::serve
