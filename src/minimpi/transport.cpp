#include "minimpi/transport.hpp"

#include <cstring>

#include "common/expect.hpp"

namespace cellgan::minimpi {

SharedPayload share_payload(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return nullptr;
  return std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(), bytes.end());
}

SharedPayload share_payload(std::vector<std::uint8_t>&& bytes) {
  if (bytes.empty()) return nullptr;
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

Frame inbound_copy(const OutboundFrame& frame) {
  Frame out;
  static_cast<FrameHeader&>(out) = frame;
  const auto bytes = frame.bytes();
  out.payload.assign(bytes.begin(), bytes.end());
  return out;
}

void encode_frame_header(const FrameHeader& header, std::uint64_t payload_len,
                         std::span<std::uint8_t, kFrameHeaderBytes> out) {
  CG_EXPECT(payload_len <= kMaxFramePayload);
  std::uint8_t* p = out.data();
  store_le32(p, kFrameMagic);
  store_le64(p + 4, header.context_key);
  store_le32(p + 12, static_cast<std::uint32_t>(header.src_rank));
  store_le32(p + 16, static_cast<std::uint32_t>(header.dst_rank));
  store_le32(p + 20, static_cast<std::uint32_t>(header.tag));
  std::uint64_t vt_bits = 0;
  static_assert(sizeof(vt_bits) == sizeof(header.arrival_vt));
  std::memcpy(&vt_bits, &header.arrival_vt, sizeof(vt_bits));
  store_le64(p + 24, vt_bits);
  store_le64(p + 32, payload_len);
}

const char* to_string(FrameDecodeStatus status) {
  switch (status) {
    case FrameDecodeStatus::kOk: return "ok";
    case FrameDecodeStatus::kNeedMore: return "truncated header";
    case FrameDecodeStatus::kBadMagic: return "bad magic";
    case FrameDecodeStatus::kOversized: return "oversized payload length";
  }
  return "unknown";
}

FrameDecodeStatus decode_frame_header(std::span<const std::uint8_t> bytes,
                                      FrameHeader* out, std::uint64_t* payload_len) {
  if (bytes.size() < kFrameHeaderBytes) return FrameDecodeStatus::kNeedMore;
  const std::uint8_t* p = bytes.data();
  if (load_le32(p) != kFrameMagic) return FrameDecodeStatus::kBadMagic;
  const std::uint64_t length = load_le64(p + 32);
  if (length > kMaxFramePayload) return FrameDecodeStatus::kOversized;
  out->context_key = load_le64(p + 4);
  out->src_rank = static_cast<std::int32_t>(load_le32(p + 12));
  out->dst_rank = static_cast<std::int32_t>(load_le32(p + 16));
  out->tag = static_cast<std::int32_t>(load_le32(p + 20));
  const std::uint64_t vt_bits = load_le64(p + 24);
  std::memcpy(&out->arrival_vt, &vt_bits, sizeof(out->arrival_vt));
  *payload_len = length;
  return FrameDecodeStatus::kOk;
}

void InProcTransport::send(int dst_world_rank, OutboundFrame frame) {
  (void)dst_world_rank;  // every rank is local; the sink routes by dst_rank
  CG_EXPECT(sink_ != nullptr);
  sink_(inbound_copy(frame));
}

}  // namespace cellgan::minimpi
