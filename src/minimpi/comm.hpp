// Communicator handle: the rank-local view of one communication context.
//
// Mirrors the MPI surface the paper's comm-manager uses: point-to-point
// send/recv with tags, probe, barrier, broadcast, gather, allgather, and
// split() to derive the LOCAL (active slaves) and GLOBAL (slaves + master)
// contexts from WORLD. All collectives are implemented on top of the p2p
// layer, so simulated time emerges from the same message trace in both
// modes. A payload sent to several ranks is one shared buffer (transport.hpp).
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"
#include "minimpi/message.hpp"
#include "minimpi/runtime.hpp"

namespace cellgan::minimpi {

class Comm {
 public:
  Comm(Runtime& runtime, int context_id, int local_rank);

  int rank() const { return local_rank_; }
  int size() const;
  Runtime& runtime() { return *runtime_; }

  /// The calling rank's virtual clock / profiler / jitter stream.
  common::VirtualClock& clock();
  common::Profiler& profiler();
  common::Rng& jitter_rng();

  // ---- point-to-point -----------------------------------------------------

  /// Buffered send (never blocks). `dst` is a local rank in this communicator.
  void send(int dst, int tag, std::span<const std::uint8_t> bytes);

  /// Out-of-band send: no virtual-time cost and an arrival stamp of zero, so
  /// the receive never drags the receiver's clock. For control-plane traffic
  /// (heartbeats, status queries) that in the real system rides a background
  /// thread without blocking training.
  void send_oob(int dst, int tag, std::span<const std::uint8_t> bytes);
  /// Convenience: send a trivially-copyable value.
  template <typename T>
  void send_value(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    send(dst, tag, std::span<const std::uint8_t>(p, sizeof(T)));
  }

  /// Blocking receive matching (src, tag); wildcards kAnySource / kAnyTag.
  /// Death-aware in distributed mode: when the awaited source's stream is
  /// recorded lost (Runtime::peer_lost) and no matching message is queued,
  /// raises PeerDeathError naming the dead world rank instead of hanging.
  Message recv(int src, int tag);
  /// Timed receive (real time); nullopt on timeout. Deliberately *not*
  /// death-aware: pollers (heartbeat, the slave's control loop) own their
  /// own miss accounting.
  std::optional<Message> recv_for(int src, int tag, double timeout_s);
  /// Deadline-aware receive: like recv, but a peer that stays silent for
  /// `timeout_s` real seconds raises TimeoutError (errors.hpp) naming the
  /// awaited (source, tag) — a dead peer becomes a named error instead of an
  /// infinite hang, and one whose stream is already gone raises
  /// PeerDeathError without waiting out the deadline. Used by the
  /// multi-process transport's control paths and any caller that must
  /// survive peer loss.
  Message recv_timeout(int src, int tag, double timeout_s);
  /// Timed receive that never touches the virtual clock, pairing with
  /// send_oob: recovery-control traffic must not perturb the simulated
  /// timeline even when the net model charges per-byte receive overhead.
  std::optional<Message> recv_oob_for(int src, int tag, double timeout_s);
  /// Non-blocking receive.
  std::optional<Message> try_recv(int src, int tag);
  /// Non-destructive check.
  bool probe(int src, int tag);

  /// True when `rank`'s underlying transport stream is recorded lost
  /// (Runtime::peer_lost through this communicator's rank mapping). Always
  /// false in-process and for the calling rank itself. The liveness fact
  /// pollers (heartbeat monitor, the master's Finished wait) consult to turn
  /// a silent peer into a named failure without waiting out a timeout.
  bool peer_lost(int rank) const;
  /// The recorded reason for `rank`'s stream loss; "" when not lost.
  std::string peer_loss_reason(int rank) const;

  template <typename T>
  static T value_of(const Message& m) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    CG_EXPECT(m.payload.size() == sizeof(T));
    std::memcpy(&out, m.payload.data(), sizeof(T));
    return out;
  }

  // ---- collectives ----------------------------------------------------------
  // Every member must call in matching order (standard MPI contract).

  void barrier();
  /// Root's buffer is distributed to everyone; non-roots receive into `bytes`.
  void bcast(std::vector<std::uint8_t>& bytes, int root);
  /// Returns, at root, payloads indexed by source rank (empty elsewhere).
  std::vector<std::vector<std::uint8_t>> gather(std::span<const std::uint8_t> bytes,
                                                int root);
  /// Every rank contributes `bytes`; everyone receives all payloads by rank,
  /// its own included.
  std::vector<std::vector<std::uint8_t>> allgather(std::span<const std::uint8_t> bytes);
  /// The same lockstep, with each payload going only to the ranks that read
  /// it: every member still sends one frame to and receives one frame from
  /// every other member, but only `readers` get `bytes` and the others an
  /// empty frame; the caller's own slot holds `bytes` only when `readers`
  /// names the caller. `bytes` moves into the one buffer every reader's
  /// frame shares. Virtual time is the full allgather's: the sender is
  /// charged (n-1) transfers of `bytes` and every frame carries the same
  /// arrival stamp, reader or not; only a per-byte receive overhead (which
  /// the calibrated cost model does not charge) skips the bytes a
  /// non-reader never gets.
  std::vector<std::vector<std::uint8_t>> allgather(std::vector<std::uint8_t>&& bytes,
                                                   std::span<const int> readers);

  /// MPI_Comm_split: ranks with equal color form a new communicator ordered
  /// by (key, rank). color < 0 opts out (returns nullopt).
  std::optional<Comm> split(int color, int key);

 private:
  int world_rank_of(int local_rank) const;

  /// Hand one frame carrying `payload` to `dst`, stamped `arrival_vt`.
  void post(int dst, int tag, double arrival_vt, SharedPayload payload);
  /// send() of a shared buffer: same virtual-time charge, no copy.
  void send_shared(int dst, int tag, SharedPayload payload);
  /// The allgather lockstep: one frame to and from every other member,
  /// carrying `payload` to `readers` (every member when nullopt) and nothing
  /// to the rest. Returns the received payloads by rank, the own slot empty.
  std::vector<std::vector<std::uint8_t>> allgather_frames(
      const SharedPayload& payload, std::optional<std::span<const int>> readers);

  /// Blocking mailbox pop that, in distributed mode, wakes periodically to
  /// check the peer-loss registry — the mechanism behind death-aware recv.
  Message pop_death_aware(int src, int tag);
  /// Raise PeerDeathError when waiting on (src, tag) is provably hopeless:
  /// the specific source is lost, or (kAnySource) every other member is.
  void throw_if_peer_dead(int src, int tag) const;

  Runtime* runtime_;
  int context_id_;
  /// Resolved once at construction: CommContext storage is stable (owned by
  /// the Runtime through unique_ptr) and immutable after creation, so the
  /// per-message paths read membership/key/mailboxes without touching the
  /// runtime-wide context lock.
  CommContext* context_;
  int local_rank_;
};

}  // namespace cellgan::minimpi
