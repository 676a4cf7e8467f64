#include "minimpi/tcp_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "minimpi/errors.hpp"

namespace cellgan::minimpi {

namespace {

/// Mesh sockets leave bootstrap with its SO_RCVTIMEO still armed; receivers
/// poll() for readiness, so reads go back to blocking, while writes get a
/// deadline — a peer that stops reading (kernel buffer full, wedged process)
/// fails the sender within `send_timeout_s` instead of blocking shutdown's
/// drain-and-join forever.
void arm_socket_timeouts(int fd, double send_timeout_s) {
  timeval off{};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &off, sizeof(off));
  timeval snd{};
  snd.tv_sec = static_cast<time_t>(send_timeout_s);
  snd.tv_usec = static_cast<suseconds_t>(
      (send_timeout_s - static_cast<double>(snd.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options) : options_(options) {
  CG_EXPECT(options_.world_size >= 1);
  CG_EXPECT(options_.rank >= 0 && options_.rank < options_.world_size);
  std::string error;
  const auto rendezvous = Endpoint::parse(options_.rendezvous, &error);
  if (!rendezvous) throw BootstrapError("bootstrap: " + error);
  // Rank 0 listens on the rendezvous endpoint itself, on the socket the
  // launcher holds there when it handed one over; peers bind an ephemeral
  // wildcard listener (they may live on a different machine than rank 0)
  // whose dialable address the registration step advertises.
  const Endpoint bind_to =
      options_.rank == 0 ? *rendezvous : Endpoint{"0.0.0.0", 0};
  if (options_.rank == 0) listen_fd_ = adopted_listener_for(*rendezvous);
  if (listen_fd_ < 0) listen_fd_ = listen_on(bind_to, &error);
  if (listen_fd_ < 0) throw BootstrapError("bootstrap: " + error);
  listen_endpoint_ = local_endpoint_of(listen_fd_);
  peers_.resize(static_cast<std::size_t>(options_.world_size));
  for (auto& peer : peers_) peer = std::make_unique<Peer>();
}

TcpTransport::~TcpTransport() {
  shutdown();
}

std::string TcpTransport::rendezvous_endpoint() const {
  return listen_endpoint_.to_string();
}

void TcpTransport::start() {
  CG_EXPECT(sink_ != nullptr);
  CG_EXPECT(!started_.load());
  const auto rendezvous = Endpoint::parse(options_.rendezvous);
  CG_EXPECT(rendezvous.has_value());
  Mesh mesh = bootstrap_mesh(listen_fd_, options_.rank, options_.world_size,
                             *rendezvous, options_.timeout_s);
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (int r = 0; r < options_.world_size; ++r) {
    if (r == options_.rank) continue;
    Peer& peer = *peers_[static_cast<std::size_t>(r)];
    peer.fd = mesh.peer_fds[static_cast<std::size_t>(r)];
    CG_EXPECT(peer.fd >= 0);
    arm_socket_timeouts(peer.fd, options_.timeout_s);
  }
  started_.store(true);
  for (int r = 0; r < options_.world_size; ++r) {
    if (r == options_.rank) continue;
    Peer& peer = *peers_[static_cast<std::size_t>(r)];
    peer.sender = std::thread([this, r] { sender_loop(r); });
    peer.receiver = std::thread([this, r] { receiver_loop(r); });
  }
}

void TcpTransport::send(int dst_world_rank, OutboundFrame frame) {
  CG_EXPECT(dst_world_rank >= 0 && dst_world_rank < options_.world_size);
  if (dst_world_rank == options_.rank) {
    // Self-sends skip the wire, exactly like the in-process path.
    sink_(inbound_copy(frame));
    return;
  }
  CG_EXPECT(started_.load());
  Peer& peer = *peers_[static_cast<std::size_t>(dst_world_rank)];
  // A lost peer's sender is gone; queueing for it would only grow an inbox
  // nobody drains. Dropping keeps send()'s never-blocks contract — whoever
  // expected a reply will hit the recorded loss in a death-aware receive.
  if (peer.lost.load()) return;
  {
    std::lock_guard<std::mutex> lock(peer.mutex);
    peer.queue.push_back(std::move(frame));
  }
  peer.ready.notify_one();
}

bool TcpTransport::peer_lost(int world_rank) const {
  if (world_rank < 0 || world_rank >= options_.world_size) return false;
  if (world_rank == options_.rank) return false;
  return peers_[static_cast<std::size_t>(world_rank)]->lost.load();
}

void TcpTransport::report_peer_loss(int peer_rank, bool clean_eof,
                                    const std::string& reason) {
  Peer& peer = *peers_[static_cast<std::size_t>(peer_rank)];
  if (peer.lost.exchange(true)) return;  // first report wins
  {
    // Unblock a sender waiting on the queue and drop frames it will never
    // deliver.
    std::lock_guard<std::mutex> lock(peer.mutex);
    peer.queue.clear();
    peer.closing = true;
  }
  peer.ready.notify_all();
  if (stopping_.load()) return;  // teardown noise, not a death
  if (!clean_eof && options_.fail_stop) {
    common::log_error() << "tcp transport: lost rank " << peer_rank << " ("
                        << reason << "); fail-stop policy is set";
    std::abort();
  }
  // A clean EOF is how normal teardown looks from the slower side too, so
  // it stays below warning level; the handler still hears about it.
  (clean_eof ? common::log_debug() : common::log_warn())
      << "tcp transport: lost rank " << peer_rank << " ("
      << (clean_eof ? "clean EOF: " : "") << reason << ")";
  if (peer_loss_handler_) peer_loss_handler_(peer_rank, clean_eof, reason);
}

void TcpTransport::sender_loop(int peer_rank) {
  common::set_thread_log_label("tcp send -> " + std::to_string(peer_rank));
  Peer& peer = *peers_[static_cast<std::size_t>(peer_rank)];
  for (;;) {
    OutboundFrame frame;
    {
      std::unique_lock<std::mutex> lock(peer.mutex);
      peer.ready.wait(lock, [&] { return peer.closing || !peer.queue.empty(); });
      if (peer.queue.empty()) break;  // closing and drained
      frame = std::move(peer.queue.front());
      peer.queue.pop_front();
    }
    if (!write_frame(peer.fd, frame, frame.bytes())) {
      if (stopping_.load()) break;  // peer already gone during teardown
      // Mid-run write failure means the peer's stream is dead. Record the
      // loss so the rank's own thread can raise PeerDeathError at its next
      // receive; aborting here would skip destructors and flushes.
      report_peer_loss(peer_rank, /*clean_eof=*/false,
                       std::string("write failed: ") + std::strerror(errno));
      break;
    }
  }
  // All queued frames are on the wire; tell the peer no more are coming.
  ::shutdown(peer.fd, SHUT_WR);
}

void TcpTransport::receiver_loop(int peer_rank) {
  common::set_thread_log_label("tcp recv <- " + std::to_string(peer_rank));
  Peer& peer = *peers_[static_cast<std::size_t>(peer_rank)];
  std::vector<std::uint8_t> header(kFrameHeaderBytes);
  for (;;) {
    // Poll so the loop can notice shutdown() even when the peer lingers.
    pollfd pfd{peer.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load()) break;
    if (ready < 0 && errno != EINTR) {
      // Raising a named TransportError is the receive paths' job; here we
      // can only record why this link died instead of wedging silently.
      report_peer_loss(peer_rank, /*clean_eof=*/false,
                       std::string("poll failed: ") + std::strerror(errno));
      break;
    }
    if (ready <= 0) continue;

    std::size_t got = 0;
    if (!read_exact(peer.fd, header.data(), header.size(), &got)) {
      if (got == 0) {
        // Clean EOF between frames: orderly teardown *or* a SIGKILLed peer
        // (the kernel closes its sockets either way). The receive call
        // sites decide which one it was.
        report_peer_loss(peer_rank, /*clean_eof=*/true, "closed its stream");
        break;
      }
      protocol_errors_.fetch_add(1);
      report_peer_loss(peer_rank, /*clean_eof=*/false,
                       "closed mid-frame (" + std::to_string(got) + "/" +
                           std::to_string(header.size()) + " header bytes)");
      break;
    }
    Frame frame;
    std::uint64_t payload_len = 0;
    const FrameDecodeStatus status =
        decode_frame_header(header, &frame, &payload_len);
    if (status != FrameDecodeStatus::kOk) {
      protocol_errors_.fetch_add(1);
      report_peer_loss(peer_rank, /*clean_eof=*/false,
                       std::string("invalid frame: ") + to_string(status));
      break;
    }
    frame.payload.resize(payload_len);
    if (payload_len > 0 &&
        !read_exact(peer.fd, frame.payload.data(), frame.payload.size())) {
      protocol_errors_.fetch_add(1);
      report_peer_loss(peer_rank, /*clean_eof=*/false, "closed mid-payload");
      break;
    }
    try {
      sink_(std::move(frame));
    } catch (const std::exception& e) {
      // A frame this process cannot deliver (TransportError from
      // Runtime::ingest) is a peer protocol violation: keep the diagnostic
      // and drop the connection instead of std::terminate-ing the process.
      protocol_errors_.fetch_add(1);
      report_peer_loss(peer_rank, /*clean_eof=*/false,
                       std::string("undeliverable frame: ") + e.what());
      break;
    }
  }
}

void TcpTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (started_.load()) {
    // From here on, I/O failures are expected teardown noise, not a dead
    // peer (senders check this flag before escalating a write error).
    stopping_.store(true);
    // Phase 1: drain and close the write sides so peers see clean EOFs.
    for (auto& peer : peers_) {
      if (peer->fd < 0) continue;
      {
        std::lock_guard<std::mutex> lock(peer->mutex);
        peer->closing = true;
      }
      peer->ready.notify_all();
    }
    for (auto& peer : peers_) {
      if (peer->sender.joinable()) peer->sender.join();
    }
    // Phase 2: stop the receivers. SHUT_RD unblocks one wedged mid-frame in
    // recv() (a poll tick only catches those waiting between frames) without
    // the fd-reuse hazard of closing under a concurrent reader.
    for (auto& peer : peers_) {
      if (peer->fd >= 0) ::shutdown(peer->fd, SHUT_RD);
    }
    for (auto& peer : peers_) {
      if (peer->receiver.joinable()) peer->receiver.join();
      if (peer->fd >= 0) {
        ::close(peer->fd);
        peer->fd = -1;
      }
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace cellgan::minimpi
