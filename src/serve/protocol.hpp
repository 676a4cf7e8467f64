// Wire protocol of the cellgan serving plane.
//
// A serving conversation is a sequence of length-prefixed frames over one
// TCP connection, reusing minimpi's frame codec (transport.hpp) and frame
// writer (bootstrap.hpp's write_frame: header and payload in one sendmsg) so
// the serving plane inherits the same magic/length validation — and the
// same oversized-payload guard — as the training transport. The mapping:
//
//   Frame.context_key = kServeContextKey   (rejects cross-plane traffic)
//   Frame.tag         = MsgType
//   Frame.payload     = the message body (a field list, common/serialize.hpp)
//
// Requests carry client-assigned request ids, so a client may pipeline many
// sample requests on one connection and match responses out of order — the
// server's micro-batcher completes them asynchronously.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cellgan::serve {

/// Context key of every serving frame ("SERVE" in ASCII). A frame with any
/// other key on a serving socket is a protocol error, not silently dropped.
inline constexpr std::uint64_t kServeContextKey = 0x5345525645ULL;

enum class MsgType : std::int32_t {
  kSampleRequest = 1,   ///< client -> server: SampleRequest
  kSampleResponse = 2,  ///< server -> client: SampleResponse
  kStatsRequest = 3,    ///< client -> server: empty payload
  kStatsResponse = 4,   ///< server -> client: StatsResponse
  kShutdownRequest = 5, ///< client -> server: empty payload
  kShutdownAck = 6,     ///< server -> client: empty payload ("will drain")
};

const char* to_string(MsgType type);

/// Ask the server for `count` mixture samples drawn on Rng(seed). The reply
/// is bit-identical to core::CheckpointMixture::sample(count, seed) on the
/// server's checkpoint (per tensor-kernel kind), whatever batch the server
/// folded the request into.
struct SampleRequest {
  std::uint64_t request_id = 0;
  std::uint64_t seed = 0;
  std::uint32_t count = 1;

  std::vector<std::uint8_t> serialize() const;
  static SampleRequest deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const SampleRequest&, const SampleRequest&) = default;
};

/// Status codes of a SampleResponse.
enum class SampleStatus : std::uint32_t {
  kOk = 0,
  kBadRequest = 1,   ///< count out of [1, max_samples_per_request]
  kModelError = 2,   ///< checkpoint could not be (re)loaded
  kShuttingDown = 3, ///< arrived after drain began
};

struct SampleResponse {
  std::uint64_t request_id = 0;
  std::uint32_t status = 0;  ///< SampleStatus
  std::string error;         ///< diagnostic when status != kOk
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::vector<float> samples;  ///< row-major rows x cols
  // Serving telemetry echoed per response (also on the observer stream).
  std::uint32_t batch_requests = 0;  ///< requests in the shared forward
  double queue_us = 0.0;
  double forward_us = 0.0;

  bool ok() const { return status == 0; }

  std::vector<std::uint8_t> serialize() const;
  static SampleResponse deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const SampleResponse&, const SampleResponse&) = default;
};

/// Server-lifetime counters, answered to a kStatsRequest.
struct StatsResponse {
  std::uint64_t requests = 0;   ///< sample requests completed
  std::uint64_t samples = 0;    ///< rows generated
  std::uint64_t batches = 0;    ///< forward passes executed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t rejected = 0;   ///< non-kOk responses sent
  double uptime_s = 0.0;
  double total_queue_us = 0.0;
  double total_forward_us = 0.0;

  std::vector<std::uint8_t> serialize() const;
  static StatsResponse deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// Malformed traffic on a serving socket (bad magic, foreign context key,
/// oversized or truncated payload). Clean EOF is NOT an error — recv_message
/// returns false for it.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// One decoded serving frame.
struct Message {
  MsgType type = MsgType::kSampleRequest;
  std::vector<std::uint8_t> payload;
};

/// Frame and write a message. False when the peer is gone (broken pipe).
bool send_message(int fd, MsgType type, std::span<const std::uint8_t> payload);

/// Read one message. Returns false on clean EOF before any header byte
/// (orderly connection close); throws ProtocolError on malformed framing or
/// a mid-frame disconnect.
bool recv_message(int fd, Message* out);

}  // namespace cellgan::serve
