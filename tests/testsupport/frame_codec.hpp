// Whole-frame encoder for wire-format tests: the oracle the pinned frame
// bytes and the malformed-frame cases are built from. The program never
// builds a frame in one buffer — minimpi::write_frame sends the header and
// the payload with one sendmsg — so this encoder lives with the tests and
// writes every field itself, independently of the program's header codec.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "minimpi/transport.hpp"

namespace cellgan::testsupport {

/// Header and payload of `frame` in one contiguous buffer.
inline std::vector<std::uint8_t> encode_frame(const minimpi::Frame& frame) {
  std::vector<std::uint8_t> out(minimpi::kFrameHeaderBytes + frame.payload.size());
  std::uint8_t* p = out.data();
  minimpi::store_le32(p, minimpi::kFrameMagic);
  minimpi::store_le64(p + 4, frame.context_key);
  minimpi::store_le32(p + 12, static_cast<std::uint32_t>(frame.src_rank));
  minimpi::store_le32(p + 16, static_cast<std::uint32_t>(frame.dst_rank));
  minimpi::store_le32(p + 20, static_cast<std::uint32_t>(frame.tag));
  std::uint64_t vt_bits = 0;
  static_assert(sizeof(vt_bits) == sizeof(frame.arrival_vt));
  std::memcpy(&vt_bits, &frame.arrival_vt, sizeof(vt_bits));
  minimpi::store_le64(p + 24, vt_bits);
  minimpi::store_le64(p + 32, frame.payload.size());
  if (!frame.payload.empty()) {
    std::memcpy(p + minimpi::kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

}  // namespace cellgan::testsupport
