// Transport seam of the minimpi runtime.
//
// A Transport moves *frames* — a Message plus the (context, destination)
// addressing the mailbox layer needs — between world ranks. The Runtime
// routes every send through its Transport and receives every delivery
// through a frame sink, so the execution substrate is pluggable:
//
//   InProcTransport  all ranks live in one process (thread-per-rank); a
//                    frame is handed straight back to the owning Runtime's
//                    sink, with its own copy of the payload — bit-identical
//                    to the historical direct mailbox push.
//   TcpTransport     one process per rank; frames are length-prefix encoded
//                    and carried over POSIX sockets (tcp_transport.hpp).
//
// An outbound frame refers to its payload through a shared, immutable
// buffer: a collective that sends one payload to many ranks builds it once,
// and every destination's frame points at it. An inbound frame owns the
// bytes its receiver read. The wire format lives here (the header codec) so
// that framing is testable without sockets and shared by every remote
// transport; bootstrap.hpp's write_frame puts a frame on a socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cellgan::minimpi {

/// Addressing and stamp of one routed message. `context_key` is the
/// process-independent communicator id (Runtime derives equal keys for equal
/// split sequences on every member), `src_rank` / `dst_rank` are local ranks
/// within that communicator.
struct FrameHeader {
  std::uint64_t context_key = 0;
  std::int32_t src_rank = 0;
  std::int32_t dst_rank = 0;
  std::int32_t tag = 0;
  double arrival_vt = 0.0;  ///< simulated arrival stamp (see message.hpp)
};

/// An inbound frame: the header plus the payload bytes its receiver owns.
struct Frame : FrameHeader {
  std::vector<std::uint8_t> payload;
};

/// One immutable payload buffer, shared by every frame that carries it. The
/// last frame to drop its reference frees it, on whichever thread that is.
using SharedPayload = std::shared_ptr<const std::vector<std::uint8_t>>;

/// An outbound frame: the header plus a reference to a payload buffer that
/// other destinations of the same message may share. A null buffer carries
/// zero bytes.
struct OutboundFrame : FrameHeader {
  SharedPayload payload;

  std::span<const std::uint8_t> bytes() const {
    return payload ? std::span<const std::uint8_t>(*payload)
                   : std::span<const std::uint8_t>();
  }
};

/// A buffer holding a copy of `bytes`; null for an empty span.
SharedPayload share_payload(std::span<const std::uint8_t> bytes);
/// A buffer that takes over `bytes`; null when it is empty.
SharedPayload share_payload(std::vector<std::uint8_t>&& bytes);

/// The frame a receiver of `frame` owns: same header, its own payload copy.
Frame inbound_copy(const OutboundFrame& frame);

// ---- wire format -----------------------------------------------------------
//
// [magic u32][context_key u64][src i32][dst i32][tag i32][arrival_vt f64]
// [payload_len u64][payload bytes], all fields little-endian.

/// Little-endian integer codec shared by every wire format in minimpi (frame
/// headers here, bootstrap handshake messages, split contributions).
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline constexpr std::uint32_t kFrameMagic = 0x31464743;  // "CGF1"
inline constexpr std::size_t kFrameHeaderBytes = 4 + 8 + 4 + 4 + 4 + 8 + 8;
/// Upper bound on a frame payload: far above any genome/result message but
/// small enough that a corrupted length field cannot trigger a huge
/// allocation before being rejected.
inline constexpr std::uint64_t kMaxFramePayload = 1ULL << 30;

/// Write the wire header of a frame carrying `payload_len` bytes to `out`.
void encode_frame_header(const FrameHeader& header, std::uint64_t payload_len,
                         std::span<std::uint8_t, kFrameHeaderBytes> out);

enum class FrameDecodeStatus {
  kOk,           ///< header valid; *payload_len more bytes complete the frame
  kNeedMore,     ///< fewer than kFrameHeaderBytes available
  kBadMagic,     ///< bytes do not start a frame
  kOversized,    ///< payload length exceeds kMaxFramePayload
};

const char* to_string(FrameDecodeStatus status);

/// Validate and decode a frame header from the front of `bytes`. On kOk the
/// fields of `out` are filled and `payload_len` receives the advertised
/// payload size.
FrameDecodeStatus decode_frame_header(std::span<const std::uint8_t> bytes,
                                      FrameHeader* out, std::uint64_t* payload_len);

// ---- transport interface ---------------------------------------------------

/// Delivery callback: invoked (possibly from a background receiver thread)
/// with every frame addressed to this process. The Runtime installs its
/// ingest function here.
using FrameSink = std::function<void(Frame)>;

/// Peer-loss callback: invoked (from an I/O thread) when the link to
/// `world_rank` is gone for good. `clean_eof` distinguishes an orderly FIN
/// between frames from a mid-frame/mid-write failure — but note that a
/// SIGKILLed process also produces a *clean* EOF (the kernel closes its
/// sockets), so the interpretation of a loss (expected teardown vs. rank
/// death) belongs to the receive call sites, not the transport.
using PeerLossHandler =
    std::function<void(int world_rank, bool clean_eof, const std::string& reason)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Install the delivery callback. Must be called before start()/send().
  void set_sink(FrameSink sink) { sink_ = std::move(sink); }

  /// Install the peer-loss callback. Must be called before start(). Optional:
  /// without one, losses are only logged by the transport.
  void set_peer_loss_handler(PeerLossHandler handler) {
    peer_loss_handler_ = std::move(handler);
  }

  /// Establish connectivity (blocking). InProc: no-op. Tcp: rendezvous with
  /// every peer and spawn the per-peer I/O threads; throws BootstrapError.
  virtual void start() {}

  /// Deliver `frame` to `dst_world_rank`. Never blocks on the destination
  /// consuming it (buffered-send semantics, like Comm::send). The payload
  /// buffer is only read, never changed.
  virtual void send(int dst_world_rank, OutboundFrame frame) = 0;

  /// Flush queued outbound frames and release I/O resources. Idempotent.
  virtual void shutdown() {}

  virtual const char* name() const = 0;

 protected:
  FrameSink sink_;
  PeerLossHandler peer_loss_handler_;
};

/// The historical single-process path behind the Transport interface: every
/// world rank shares one Runtime, so delivery is the owning Runtime's sink.
/// Each delivery copies the shared payload into the frame the receiver owns.
class InProcTransport final : public Transport {
 public:
  void send(int dst_world_rank, OutboundFrame frame) override;
  const char* name() const override { return "inproc"; }
};

}  // namespace cellgan::minimpi
