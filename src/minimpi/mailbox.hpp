// Per-rank, per-communicator message queue.
//
// FIFO per (source, tag) — the MPI non-overtaking guarantee — implemented by
// scanning the arrival-ordered queue for the first envelope matching the
// receive filter. Blocking, timed and non-blocking receives are provided;
// the timed variant backs the heartbeat protocol's "wait X seconds" poll.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "minimpi/message.hpp"

namespace cellgan::minimpi {

class Mailbox {
 public:
  /// Enqueue (thread-safe); wakes blocked receivers.
  void push(Message message);

  /// Block until a message matching (source, tag) is available and remove it.
  /// kAnySource / kAnyTag act as wildcards.
  Message pop(int source, int tag);

  /// Like pop() but gives up after `timeout_s` real seconds.
  std::optional<Message> pop_for(int source, int tag, double timeout_s);

  /// Deadline-aware pop: like pop_for but against an absolute deadline, so a
  /// caller waiting on several sources can share one overall budget. The
  /// building block of Comm::recv_timeout (a dead peer surfaces as a named
  /// error instead of an infinite hang).
  std::optional<Message> pop_until(int source, int tag,
                                   std::chrono::steady_clock::time_point deadline);

  /// Non-blocking: remove and return a matching message if one is queued.
  std::optional<Message> try_pop(int source, int tag);

  /// Non-destructive check for a matching message.
  bool probe(int source, int tag);

  std::size_t size() const;

 private:
  std::optional<Message> extract_locked(int source, int tag);

  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<Message> queue_;
};

}  // namespace cellgan::minimpi
