#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>

#include "common/serialize.hpp"
#include "minimpi/bootstrap.hpp"
#include "minimpi/transport.hpp"

namespace cellgan::serve {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kSampleRequest: return "sample_request";
    case MsgType::kSampleResponse: return "sample_response";
    case MsgType::kStatsRequest: return "stats_request";
    case MsgType::kStatsResponse: return "stats_response";
    case MsgType::kShutdownRequest: return "shutdown_request";
    case MsgType::kShutdownAck: return "shutdown_ack";
  }
  return "unknown";
}

std::vector<std::uint8_t> SampleRequest::serialize() const {
  common::ByteWriter w;
  w.write(request_id);
  w.write(seed);
  w.write(count);
  return w.take();
}

SampleRequest SampleRequest::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  SampleRequest req;
  req.request_id = r.read<std::uint64_t>();
  req.seed = r.read<std::uint64_t>();
  req.count = r.read<std::uint32_t>();
  CG_ENSURE(r.exhausted());
  return req;
}

std::vector<std::uint8_t> SampleResponse::serialize() const {
  common::ByteWriter w;
  w.write(request_id);
  w.write(status);
  w.write_string(error);
  w.write(rows);
  w.write(cols);
  w.write_vector(samples);
  w.write(batch_requests);
  w.write(queue_us);
  w.write(forward_us);
  return w.take();
}

SampleResponse SampleResponse::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  SampleResponse resp;
  resp.request_id = r.read<std::uint64_t>();
  resp.status = r.read<std::uint32_t>();
  resp.error = r.read_string();
  resp.rows = r.read<std::uint32_t>();
  resp.cols = r.read<std::uint32_t>();
  resp.samples = r.read_vector<float>();
  resp.batch_requests = r.read<std::uint32_t>();
  resp.queue_us = r.read<double>();
  resp.forward_us = r.read<double>();
  CG_ENSURE(r.exhausted());
  return resp;
}

std::vector<std::uint8_t> StatsResponse::serialize() const {
  common::ByteWriter w;
  w.write(requests);
  w.write(samples);
  w.write(batches);
  w.write(cache_hits);
  w.write(cache_misses);
  w.write(cache_evictions);
  w.write(rejected);
  w.write(uptime_s);
  w.write(total_queue_us);
  w.write(total_forward_us);
  return w.take();
}

StatsResponse StatsResponse::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  StatsResponse stats;
  stats.requests = r.read<std::uint64_t>();
  stats.samples = r.read<std::uint64_t>();
  stats.batches = r.read<std::uint64_t>();
  stats.cache_hits = r.read<std::uint64_t>();
  stats.cache_misses = r.read<std::uint64_t>();
  stats.cache_evictions = r.read<std::uint64_t>();
  stats.rejected = r.read<std::uint64_t>();
  stats.uptime_s = r.read<double>();
  stats.total_queue_us = r.read<double>();
  stats.total_forward_us = r.read<double>();
  CG_ENSURE(r.exhausted());
  return stats;
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
