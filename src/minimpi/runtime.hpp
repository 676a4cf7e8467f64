// Execution harness of the minimpi world — the substitute for `mpirun`.
//
// A Runtime hosts one or more world ranks and routes every message through a
// Transport (transport.hpp). Two modes:
//
//   * In-process (historical): Runtime(world_size, ...) spawns
//     `world_size` threads, hands each a Comm bound to the WORLD
//     communicator, and joins them. All ranks are local; the InProcTransport
//     hands frames straight back to this Runtime's mailboxes.
//   * Distributed: Runtime(world_size, local_rank, transport, ...) hosts a
//     single rank of a multi-process world. Sends to remote ranks leave
//     through the transport (e.g. TcpTransport); a background receiver
//     feeds inbound frames into the same mailbox matching logic. run()
//     executes rank_main once, on the calling thread.
//
// Per-rank state (virtual clock, profiler, jitter RNG) lives in the Runtime
// and is returned to the caller when the program ends, which is how the
// scaling benchmarks read off per-rank simulated times. Communicator splits
// follow MPI_Comm_split semantics; in-process they rendezvous through shared
// memory, distributed they exchange (color, key) contributions over the
// transport and every member derives the same process-independent *context
// key* for the child communicator — the key is what frames carry on the
// wire, so equal split sequences on different processes name the same
// communicator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/netmodel.hpp"
#include "minimpi/transport.hpp"

namespace cellgan::minimpi {

class Comm;

/// Everything a rank owns besides its mailboxes.
struct RankState {
  common::VirtualClock clock;
  common::Profiler profiler;
  common::Rng jitter_rng{0};
};

/// One communicator's shared plumbing: membership, per-member mailboxes and
/// the process-independent key frames carry on the wire. In distributed mode
/// only the local member's mailbox sees traffic; the others stay empty.
struct CommContext {
  std::uint64_t key = 0;
  std::vector<int> members;  ///< world rank of each local rank
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
};

class Runtime {
 public:
  /// In-process world: all `world_size` ranks live in this Runtime. `seed`
  /// keys the per-rank jitter streams (straggler noise); repeated runs with
  /// different seeds give the +-std columns of the benchmarks.
  explicit Runtime(int world_size, NetModelConfig net_config = {},
                   std::uint64_t seed = 0x5eedULL);

  /// Distributed world: this Runtime hosts `local_rank` only; every other
  /// rank is reached through `transport` (whose start() is invoked here and
  /// may block on the rendezvous — BootstrapError propagates). `seed` must
  /// be identical across the processes of one world for the per-rank jitter
  /// streams to match the in-process simulation.
  Runtime(int world_size, int local_rank, std::unique_ptr<Transport> transport,
          NetModelConfig net_config = {}, std::uint64_t seed = 0x5eedULL);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int world_size() const { return world_size_; }
  const NetModel& net() const { return net_; }

  /// True when this Runtime hosts a single rank of a multi-process world.
  bool distributed() const { return local_rank_ >= 0; }
  /// The hosted rank in distributed mode; -1 in-process.
  int local_rank() const { return local_rank_; }

  Transport& transport() { return *transport_; }

  struct RankResult {
    double virtual_time_s = 0.0;
    common::Profiler profiler;
  };

  /// Run `rank_main` on every hosted rank and block until it returns.
  /// In-process: world_size threads; an exception escaping any rank aborts
  /// the program (the fail-stop behaviour of an MPI job). Distributed: runs
  /// rank_main once on the calling thread; named errors (TimeoutError,
  /// TransportError, ...) propagate to the caller, which owns the process
  /// boundary. Returns per-rank results (distributed: only the local entry
  /// is populated).
  std::vector<RankResult> run(const std::function<void(Comm&)>& rank_main);

  /// Frames received for communicators this process has not (yet) created —
  /// early arrivals during a split, or strays with a corrupted context key.
  std::size_t pending_frames() const;

  // -- peer liveness --------------------------------------------------------
  //
  // In distributed mode the transport reports every lost peer stream here
  // (installed as its PeerLossHandler). The registry is what makes rank
  // death *observable from the rank's own thread*: death-aware receives in
  // Comm consult it and raise PeerDeathError instead of hanging, and a
  // recovery layer reads lost_peers() to decide who to respawn. In-process
  // worlds never record losses.

  /// Record that `world_rank`'s stream is gone. Thread-safe; first report
  /// of a rank wins (later ones keep the original reason).
  void note_peer_loss(int world_rank, bool clean_eof, std::string reason);
  /// True once `world_rank` was reported lost (cleanly or not).
  bool peer_lost(int world_rank) const;
  /// World ranks reported lost so far, ascending.
  std::vector<int> lost_peers() const;
  /// The recorded reason for a lost rank ("" when not lost).
  std::string peer_loss_reason(int world_rank) const;

  // -- internal API used by Comm ------------------------------------------

  RankState& rank_state(int world_rank);
  CommContext& context(int context_id);

  /// Hand `message` to (context, dst local rank) through the transport,
  /// resolving the addressing under the context lock. Comm, which holds the
  /// immutable context key and membership, builds its frames itself and
  /// hands them to transport() directly.
  void route(int context_id, int dst_local_rank, Message message);

  /// Transport delivery sink: file an inbound frame into the addressed
  /// mailbox (or park it until its communicator exists). Throws
  /// TransportError for frames this process cannot be the destination of.
  void ingest(Frame frame);

  /// Collective split: blocks until every member of `parent_context` has
  /// called, then returns the id of the new context for this caller, or -1
  /// if color < 0 (caller excluded). Thread-safe.
  int split_context(int parent_context, int caller_local_rank, int color, int key);

 private:
  int create_context_locked(std::vector<int> members, std::uint64_t key);
  void deliver_locked(CommContext& context, Frame frame);
  int split_context_distributed(int parent_context, int caller_local_rank,
                                int color, int key);

  int world_size_;
  int local_rank_ = -1;  ///< hosted rank in distributed mode; -1 in-process
  NetModel net_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<RankState>> rank_states_;

  struct PeerLoss {
    bool clean = false;
    std::string reason;
  };
  mutable std::mutex losses_mutex_;
  std::map<int, PeerLoss> losses_;  ///< world rank -> first recorded loss

  mutable std::mutex contexts_mutex_;
  std::vector<std::unique_ptr<CommContext>> contexts_;
  std::map<std::uint64_t, int> context_of_key_;
  std::map<std::uint64_t, std::vector<Frame>> pending_;  ///< early/stray frames

  // In-process split rendezvous state, keyed by (parent context, sequence#).
  struct SplitGroup {
    std::vector<int> colors;  // indexed by parent-local rank; -2 = not arrived
    std::vector<int> keys;
    int arrived = 0;
    bool built = false;
    std::map<int, int> context_of_member;  // parent-local rank -> new context id
  };
  std::map<std::pair<int, int>, SplitGroup> splits_;
  std::map<int, std::vector<int>> split_round_;  // per parent ctx, per local rank
  std::condition_variable split_cv_;
};

/// Bound (context, rank) pair — the object user code sends/receives through.
/// See comm.hpp.

}  // namespace cellgan::minimpi
