#include "minimpi/comm.hpp"

#include <algorithm>
#include <chrono>

#include "minimpi/errors.hpp"

namespace cellgan::minimpi {

namespace {
// Internal tags live below the user range (user tags must be >= 0).
constexpr int kTagBarrierUp = -2;
constexpr int kTagBarrierDown = -3;
constexpr int kTagBcast = -4;
constexpr int kTagGather = -5;
constexpr int kTagAllgather = -6;
}  // namespace

Comm::Comm(Runtime& runtime, int context_id, int local_rank)
    : runtime_(&runtime), context_id_(context_id),
      context_(&runtime.context(context_id)), local_rank_(local_rank) {}

int Comm::size() const {
  return static_cast<int>(context_->members.size());
}

int Comm::world_rank_of(int local_rank) const {
  const auto& members = context_->members;
  CG_EXPECT(local_rank >= 0 && local_rank < static_cast<int>(members.size()));
  return members[local_rank];
}

common::VirtualClock& Comm::clock() {
  return runtime_->rank_state(world_rank_of(local_rank_)).clock;
}

common::Profiler& Comm::profiler() {
  return runtime_->rank_state(world_rank_of(local_rank_)).profiler;
}

common::Rng& Comm::jitter_rng() {
  return runtime_->rank_state(world_rank_of(local_rank_)).jitter_rng;
}

void Comm::post(int dst, int tag, double arrival_vt, SharedPayload payload) {
  OutboundFrame frame;
  frame.context_key = context_->key;
  frame.src_rank = local_rank_;
  frame.dst_rank = dst;
  frame.tag = tag;
  frame.arrival_vt = arrival_vt;
  frame.payload = std::move(payload);
  runtime_->transport().send(context_->members[dst], std::move(frame));
}

void Comm::send(int dst, int tag, std::span<const std::uint8_t> bytes) {
  send_shared(dst, tag, share_payload(bytes));
}

void Comm::send_shared(int dst, int tag, SharedPayload payload) {
  CG_EXPECT(dst >= 0 && dst < size());
  const NetModel& net = runtime_->net();
  common::VirtualClock& my_clock = clock();
  // Sender is busy for the serialization/transfer cost, then the message
  // travels one latency. Self-sends skip the wire.
  double arrival = 0.0;
  if (net.enabled()) {
    if (dst != local_rank_) {
      my_clock.advance(net.send_cost_s(payload ? payload->size() : 0));
      arrival = my_clock.now() + net.latency_s();
    } else {
      arrival = my_clock.now();
    }
  }
  post(dst, tag, arrival, std::move(payload));
}

void Comm::send_oob(int dst, int tag, std::span<const std::uint8_t> bytes) {
  CG_EXPECT(dst >= 0 && dst < size());
  post(dst, tag, /*arrival_vt=*/0.0, share_payload(bytes));
}

Message Comm::pop_death_aware(int src, int tag) {
  Mailbox& mailbox = *context_->mailboxes[local_rank_];
  if (!runtime_->distributed()) return mailbox.pop(src, tag);
  // Slice the wait so a loss recorded *after* this receive started blocking
  // still surfaces within a slice. Messages that beat the loss report into
  // the mailbox always win: the transport delivers every frame it read
  // before it saw the stream die.
  for (;;) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    if (auto m = mailbox.pop_until(src, tag, deadline)) return std::move(*m);
    throw_if_peer_dead(src, tag);
  }
}

void Comm::throw_if_peer_dead(int src, int tag) const {
  if (!runtime_->distributed()) return;
  const auto name = [](int value, const char* any) {
    return value < 0 ? std::string(any) : std::to_string(value);
  };
  const auto death = [&](int world) -> PeerDeathError {
    return PeerDeathError(
        world, "world rank " + std::to_string(world) + " died (" +
                   runtime_->peer_loss_reason(world) + ") while rank " +
                   std::to_string(local_rank_) + " of a " +
                   std::to_string(size()) + "-member communicator awaited (source=" +
                   name(src, "any") + ", tag=" + name(tag, "any") + ")");
  };
  if (src >= 0) {
    const int world = world_rank_of(src);
    if (world != runtime_->local_rank() && runtime_->peer_lost(world)) {
      throw death(world);
    }
    return;
  }
  // kAnySource: hopeless only once every other member's stream is gone.
  int first_lost = -1;
  for (int r = 0; r < size(); ++r) {
    const int world = context_->members[static_cast<std::size_t>(r)];
    if (world == runtime_->local_rank()) continue;
    if (!runtime_->peer_lost(world)) return;
    if (first_lost < 0) first_lost = world;
  }
  if (first_lost >= 0) throw death(first_lost);
}

Message Comm::recv(int src, int tag) {
  Message m = pop_death_aware(src, tag);
  const NetModel& net = runtime_->net();
  if (net.enabled()) {
    common::VirtualClock& my_clock = clock();
    my_clock.wait_until(m.arrival_vt);
    my_clock.advance(net.recv_cost_s(m.payload.size()));
  }
  return m;
}

std::optional<Message> Comm::recv_for(int src, int tag, double timeout_s) {
  auto m = context_->mailboxes[local_rank_]->pop_for(src, tag, timeout_s);
  if (m && runtime_->net().enabled()) {
    clock().wait_until(m->arrival_vt);
    clock().advance(runtime_->net().recv_cost_s(m->payload.size()));
  }
  return m;
}

Message Comm::recv_timeout(int src, int tag, double timeout_s) {
  // Sliced so a peer whose stream is already gone raises PeerDeathError
  // immediately rather than burning the whole deadline first.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  Mailbox& mailbox = *context_->mailboxes[local_rank_];
  for (;;) {
    const auto slice = std::min(
        deadline, std::chrono::steady_clock::now() + std::chrono::milliseconds(100));
    if (auto m = mailbox.pop_until(src, tag, slice)) {
      if (runtime_->net().enabled()) {
        clock().wait_until(m->arrival_vt);
        clock().advance(runtime_->net().recv_cost_s(m->payload.size()));
      }
      return std::move(*m);
    }
    throw_if_peer_dead(src, tag);
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  const auto name = [](int value, const char* any) {
    return value < 0 ? std::string(any) : std::to_string(value);
  };
  throw TimeoutError("recv timed out after " + std::to_string(timeout_s) +
                     "s waiting for (source=" + name(src, "any") +
                     ", tag=" + name(tag, "any") + ") on rank " +
                     std::to_string(local_rank_) + " of a " +
                     std::to_string(size()) + "-member communicator");
}

std::optional<Message> Comm::recv_oob_for(int src, int tag, double timeout_s) {
  // No clock movement on purpose: paired with send_oob for control traffic
  // (recovery negotiation) that must leave the simulated timeline untouched.
  return context_->mailboxes[local_rank_]->pop_for(src, tag, timeout_s);
}

std::optional<Message> Comm::try_recv(int src, int tag) {
  auto m = context_->mailboxes[local_rank_]->try_pop(src, tag);
  if (m && runtime_->net().enabled()) {
    clock().wait_until(m->arrival_vt);
    clock().advance(runtime_->net().recv_cost_s(m->payload.size()));
  }
  return m;
}

bool Comm::probe(int src, int tag) {
  return context_->mailboxes[local_rank_]->probe(src, tag);
}

bool Comm::peer_lost(int rank) const {
  if (!runtime_->distributed()) return false;
  if (rank < 0 || rank >= size()) return false;
  const int world = world_rank_of(rank);
  if (world == runtime_->local_rank()) return false;
  return runtime_->peer_lost(world);
}

std::string Comm::peer_loss_reason(int rank) const {
  if (!peer_lost(rank)) return "";
  return runtime_->peer_loss_reason(world_rank_of(rank));
}

void Comm::barrier() {
  // Flat fan-in to rank 0, fan-out back. Linear is fine at these sizes and
  // keeps the virtual-time trace easy to reason about.
  const int n = size();
  if (n == 1) return;
  if (local_rank_ == 0) {
    double latest = clock().now();
    for (int r = 1; r < n; ++r) {
      const Message m = recv(kAnySource, kTagBarrierUp);
      latest = std::max(latest, m.arrival_vt);
    }
    clock().wait_until(latest);
    for (int r = 1; r < n; ++r) send(r, kTagBarrierDown, {});
  } else {
    send(0, kTagBarrierUp, {});
    recv(0, kTagBarrierDown);
  }
}

void Comm::bcast(std::vector<std::uint8_t>& bytes, int root) {
  if (size() == 1) return;
  if (local_rank_ == root) {
    const SharedPayload payload = share_payload(bytes);
    for (int r = 0; r < size(); ++r) {
      if (r != root) send_shared(r, kTagBcast, payload);
    }
  } else {
    bytes = recv(root, kTagBcast).payload;
  }
}

std::vector<std::vector<std::uint8_t>> Comm::gather(std::span<const std::uint8_t> bytes,
                                                    int root) {
  std::vector<std::vector<std::uint8_t>> out;
  if (local_rank_ == root) {
    out.resize(size());
    out[root].assign(bytes.begin(), bytes.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = recv(r, kTagGather);
      out[r] = std::move(m.payload);
    }
  } else {
    send(root, kTagGather, bytes);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather(
    std::span<const std::uint8_t> bytes) {
  auto out = allgather_frames(share_payload(bytes), std::nullopt);
  out[local_rank_].assign(bytes.begin(), bytes.end());
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather(std::vector<std::uint8_t>&& bytes,
                                                       std::span<const int> readers) {
  std::vector<std::uint8_t> own;
  if (std::ranges::find(readers, local_rank_) != readers.end()) own = bytes;
  auto out = allgather_frames(share_payload(std::move(bytes)), readers);
  out[local_rank_] = std::move(own);
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather_frames(
    const SharedPayload& payload, std::optional<std::span<const int>> readers) {
  // Every rank sends its block and receives everyone else's. The simulated
  // cost follows a ring-style overlapped exchange: each rank is busy for
  // (n-1) block transfers — linear in communicator size, the
  // gather-scaling behaviour observed on the paper's cluster — and send /
  // receive phases overlap, so a rank's exchange completes one latency after
  // its (or the slowest peer's) transfer work ends. Payload movement itself
  // is direct exchange; only the clock model is ring-like, and it charges
  // the full block to every member whether or not that member reads it.
  const int n = size();
  std::vector<std::vector<std::uint8_t>> out(n);
  if (n == 1) return out;

  const auto reads = [&readers](int r) {
    return !readers || std::ranges::find(*readers, r) != readers->end();
  };
  const NetModel& net = runtime_->net();
  double completes_at = 0.0;
  if (net.enabled()) {
    common::VirtualClock& my_clock = clock();
    my_clock.advance(static_cast<double>(n - 1) *
                     net.send_cost_s(payload ? payload->size() : 0));
    completes_at = my_clock.now() + net.latency_s();
  }
  for (int r = 0; r < n; ++r) {
    if (r == local_rank_) continue;
    post(r, kTagAllgather, completes_at, reads(r) ? payload : nullptr);
  }
  for (int r = 0; r < n; ++r) {
    if (r == local_rank_) continue;
    out[r] = recv(r, kTagAllgather).payload;
  }
  return out;
}

std::optional<Comm> Comm::split(int color, int key) {
  const int new_context =
      runtime_->split_context(context_id_, local_rank_, color, key);
  if (new_context < 0) return std::nullopt;
  // Find our local rank in the new context.
  const auto& members = runtime_->context(new_context).members;
  const int my_world = world_rank_of(local_rank_);
  for (int r = 0; r < static_cast<int>(members.size()); ++r) {
    if (members[r] == my_world) return Comm(*runtime_, new_context, r);
  }
  CG_EXPECT(false && "split produced a context not containing the caller");
  return std::nullopt;
}

}  // namespace cellgan::minimpi
