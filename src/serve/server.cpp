#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/expect.hpp"
#include "common/log.hpp"

namespace cellgan::serve {

namespace {

/// Exact wire size of a SampleRequest payload: every request encodes to the
/// same length, having no variable-length field.
const std::size_t kSampleRequestBytes = SampleRequest{}.serialize().size();

}  // namespace

Server::Server(ServerOptions options, core::EventBus* bus)
    : options_(std::move(options)),
      observer_(bus),
      cache_(options_.cache_capacity),
      batcher_(options_.batch, &observer_) {}

Server::~Server() { drain_and_stop(); }

bool Server::start(std::string* error) {
  CG_EXPECT(listen_fd_ < 0);  // start() once

  const auto endpoint = minimpi::Endpoint::parse(options_.listen, error);
  if (!endpoint) return false;

  // Warm the cache before accepting: a server that cannot restore its model
  // should fail fast, not answer its first request with kModelError.
  const auto warm = cache_.get(options_.checkpoint);
  if (warm.model == nullptr) {
    if (error != nullptr) *error = warm.error;
    return false;
  }

  listen_fd_ = minimpi::listen_on(*endpoint, error);
  if (listen_fd_ < 0) return false;
  endpoint_ = minimpi::local_endpoint_of(listen_fd_);
  started_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

double Server::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_)
      .count();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connections_.push_back(conn);
    readers_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
  for (;;) {
    Message msg;
    try {
      if (!recv_message(conn->fd, &msg)) return;  // orderly close
    } catch (const ProtocolError& e) {
      // Malformed traffic or teardown-induced mid-frame EOF: drop the
      // connection (the transport offers no way to resynchronize a stream).
      if (!stopping_.load()) {
        common::log_warn() << "serve: " << e.what();
      }
      return;
    }
    switch (msg.type) {
      case MsgType::kSampleRequest: {
        if (msg.payload.size() != kSampleRequestBytes) {
          common::log_warn() << "serve: sample request with malformed payload; closing";
          return;
        }
        handle_sample(conn, SampleRequest::deserialize(msg.payload));
        break;
      }
      case MsgType::kStatsRequest: {
        const auto payload = stats_snapshot().serialize();
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        send_message(conn->fd, MsgType::kStatsResponse, payload);
        break;
      }
      case MsgType::kShutdownRequest: {
        // Ack means "accepted, will drain": every request already read off
        // this (or any) connection still gets its response, because
        // drain_and_stop() completes the batcher before closing sockets.
        shutdown_requested_.store(true);
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        send_message(conn->fd, MsgType::kShutdownAck, {});
        break;
      }
      default:
        common::log_warn() << "serve: unexpected message type on socket; closing";
        return;
    }
  }
}

void Server::handle_sample(const std::shared_ptr<Connection>& conn,
                           const SampleRequest& request) {
  SampleResponse reject;
  reject.request_id = request.request_id;

  if (draining_.load()) {
    reject.status = static_cast<std::uint32_t>(SampleStatus::kShuttingDown);
    reject.error = "server is draining";
    rejected_.fetch_add(1);
    send_response(conn, reject);
    return;
  }
  if (request.count < 1 || request.count > options_.max_samples_per_request) {
    reject.status = static_cast<std::uint32_t>(SampleStatus::kBadRequest);
    reject.error = "count must be in [1, " +
                   std::to_string(options_.max_samples_per_request) + "]";
    rejected_.fetch_add(1);
    send_response(conn, reject);
    return;
  }

  // Per-request lookup revalidates the checkpoint's mtime, so a server
  // whose trainer overwrote the file serves the new snapshot from the next
  // batch boundary on.
  const auto lookup = cache_.get(options_.checkpoint);
  if (lookup.model == nullptr) {
    reject.status = static_cast<std::uint32_t>(SampleStatus::kModelError);
    reject.error = lookup.error;
    rejected_.fetch_add(1);
    send_response(conn, reject);
    return;
  }

  SampleJob job;
  job.id = request.request_id;
  job.seed = request.seed;
  job.count = request.count;
  job.model = lookup.model;
  job.cache_hit = lookup.hit;
  job.done = [this, conn, id = request.request_id](SampleOutcome outcome) {
    SampleResponse response;
    response.request_id = id;
    response.status = static_cast<std::uint32_t>(SampleStatus::kOk);
    response.rows = static_cast<std::uint32_t>(outcome.samples.rows());
    response.cols = static_cast<std::uint32_t>(outcome.samples.cols());
    const auto data = outcome.samples.data();
    response.samples.assign(data.begin(), data.end());
    response.batch_requests = outcome.batch_requests;
    response.queue_us = outcome.queue_us;
    response.forward_us = outcome.forward_us;
    send_response(conn, response);
  };
  if (!batcher_.enqueue(std::move(job))) {
    reject.status = static_cast<std::uint32_t>(SampleStatus::kShuttingDown);
    reject.error = "server is draining";
    rejected_.fetch_add(1);
    send_response(conn, reject);
  }
}

void Server::send_response(const std::shared_ptr<Connection>& conn,
                           const SampleResponse& response) {
  const auto payload = response.serialize();
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  // A send failure means the client is gone; its response is undeliverable
  // by definition, so there is nothing further to do.
  send_message(conn->fd, MsgType::kSampleResponse, payload);
}

StatsResponse Server::stats_snapshot() const {
  const ServeStats aggregate = observer_.stats();
  StatsResponse stats;
  stats.requests = aggregate.requests;
  stats.samples = aggregate.samples;
  stats.batches = aggregate.batches;
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.rejected = rejected_.load();
  stats.uptime_s = uptime_s();
  stats.total_queue_us = aggregate.total_queue_us;
  stats.total_forward_us = aggregate.total_forward_us;
  return stats;
}

void Server::drain_and_stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;

  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain first: every job already accepted completes and its response is
  // written over the still-open connection...
  draining_.store(true);
  batcher_.drain_and_stop();

  // ...then unblock the readers (shutdown() wakes blocked read()s with EOF)
  // and tear the sockets down.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
  readers_.clear();
}

}  // namespace cellgan::serve
