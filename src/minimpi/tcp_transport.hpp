// TCP socket transport: one process per world rank, frames over a full mesh.
//
// Construction binds this rank's listener (rank 0 on the rendezvous
// endpoint, peers on an ephemeral port); start() runs the bootstrap
// handshake (bootstrap.hpp) and then spawns, per peer, one *sender* thread
// draining a frame queue (so Comm::send keeps its never-blocks contract and
// two ranks streaming large payloads at each other cannot deadlock on full
// kernel buffers) and one *receiver* thread decoding length-prefixed frames
// into the owning Runtime's sink, where the existing mailbox matching logic
// takes over. A queued frame refers to the payload buffer it shares with the
// message's other destinations; the sender writes header and payload with
// one write_frame, so no copy of the payload is made for the wire.
//
// Failure policy: losing a peer's stream — a failed write, a poll error, a
// mid-frame truncation, or a clean EOF (which is also what a SIGKILLed peer
// produces: the kernel closes its sockets) — is *reported*, not fatal. The
// transport marks the peer dead, drops any traffic queued for it, and tells
// the installed PeerLossHandler; the Runtime records the loss and the
// death-aware receive paths in Comm raise a named PeerDeathError from the
// rank's own thread, where a recovery layer can catch it. The historical
// log-and-abort behavior survives only behind the `fail_stop` option, as a
// last-resort policy for deployments that prefer an MPI-style job kill on an
// *unclean* loss.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "minimpi/bootstrap.hpp"
#include "minimpi/transport.hpp"

namespace cellgan::minimpi {

struct TcpTransportOptions {
  int world_size = 0;
  int rank = -1;
  /// Rank 0's endpoint. Rank 0 binds it (port 0 = pick an ephemeral port,
  /// readable back through rendezvous_endpoint()); peers dial it.
  std::string rendezvous = "127.0.0.1:0";
  /// Deadline for the whole bootstrap handshake and for draining the send
  /// queues at shutdown.
  double timeout_s = 30.0;
  /// Last-resort policy switch: abort the process on an *unclean* peer loss
  /// (failed write / garbled stream) instead of reporting it. Clean EOFs are
  /// always reported, never fatal — normal teardown produces them too.
  bool fail_stop = false;
};

class TcpTransport final : public Transport {
 public:
  /// Binds the listener; throws BootstrapError when the endpoint is unusable.
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// The actual rendezvous endpoint (post-bind; resolves a port-0 request).
  /// Only meaningful on rank 0, where it is what peers must dial.
  std::string rendezvous_endpoint() const;

  void start() override;
  void send(int dst_world_rank, OutboundFrame frame) override;
  void shutdown() override;
  const char* name() const override { return "tcp"; }

  /// Frames received whose stream ended mid-frame or failed to decode; kept
  /// for tests and postmortems (the connection is torn down on the spot).
  std::uint64_t protocol_errors() const { return protocol_errors_.load(); }

  /// True once the link to `world_rank` was reported lost (clean or not).
  bool peer_lost(int world_rank) const;

 private:
  struct Peer {
    int fd = -1;
    std::thread sender;
    std::thread receiver;
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<OutboundFrame> queue;
    bool closing = false;
    std::atomic<bool> lost{false};
  };

  void sender_loop(int peer_rank);
  void receiver_loop(int peer_rank);

  /// Mark `peer_rank` dead (first caller wins), drop its queued frames and
  /// notify the loss handler — or abort, under the fail_stop policy for an
  /// unclean loss. Never escalates during shutdown().
  void report_peer_loss(int peer_rank, bool clean_eof, const std::string& reason);

  TcpTransportOptions options_;
  int listen_fd_ = -1;
  Endpoint listen_endpoint_;
  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by world rank
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
};

}  // namespace cellgan::minimpi
