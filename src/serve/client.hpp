// Serving client: pipelined request/response matching over one framed TCP
// connection, plus an open-loop load generator for the serving benchmark.
//
// The client assigns request ids, writes requests from the caller's thread
// (under a write lock) and matches responses on a background reader thread,
// so many requests can be in flight at once — the shape the server's
// micro-batcher exists to exploit. Latency accounting is open-loop /
// coordinated-omission-correct: each request's latency is measured from its
// *scheduled* send time, so a stalled server debits every queued request,
// not just the one it was holding.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "minimpi/bootstrap.hpp"
#include "serve/protocol.hpp"

namespace cellgan::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Dial the server (retrying up to timeout_s) and start the reader.
  bool connect(const minimpi::Endpoint& endpoint, double timeout_s,
               std::string* error);

  struct Completion {
    SampleResponse response;
    std::chrono::steady_clock::time_point received;
  };

  /// Fire one sample request; returns its client-assigned id, or 0 when the
  /// write failed (connection gone). Does not wait.
  std::uint64_t send_request(std::uint64_t seed, std::uint32_t count);

  /// Wait for request `id`'s response. False on timeout or connection loss.
  bool wait(std::uint64_t id, Completion* out, double timeout_s);

  /// Round-trip a STATS request.
  bool stats(StatsResponse* out, double timeout_s);

  /// Send SHUTDOWN and wait for the ack. The server keeps answering
  /// everything already submitted (drain-first contract).
  bool shutdown_server(double timeout_s);

  void close();

 private:
  void reader_loop();

  int fd_ = -1;
  std::thread reader_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Completion> completions_;
  std::optional<StatsResponse> stats_;
  bool shutdown_acked_ = false;
  bool reader_done_ = false;

  std::mutex write_mutex_;
};

/// Open-loop load profile for run_open_loop.
struct LoadOptions {
  double qps = 50.0;          ///< offered request rate
  double duration_s = 2.0;    ///< send window
  std::uint32_t count = 16;   ///< samples per request
  std::uint64_t seed_base = 1;  ///< request i uses seed_base + i
  double timeout_s = 30.0;    ///< per-response wait bound
};

/// What one load level measured.
struct LoadReport {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< completed / wall
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   ///< timeouts, write failures, non-OK statuses
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_batch_requests = 0.0;  ///< mean co-batched occupancy
  double wall_s = 0.0;

  std::string to_json() const;
};

/// Drive `client` open-loop at options.qps for options.duration_s: requests
/// fire on a fixed schedule regardless of response progress, then all
/// responses are awaited. Latency = response received - scheduled send.
LoadReport run_open_loop(ServeClient& client, const LoadOptions& options);

}  // namespace cellgan::serve
