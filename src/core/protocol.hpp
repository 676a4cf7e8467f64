// Wire protocol between master and slaves (Fig. 2 / Fig. 3).
//
// Message tags live in the WORLD communicator's user tag space. Slaves are
// world ranks 1..N (world rank 0 is the master); within the LOCAL (slaves
// only) communicator, local rank == assigned grid cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "core/config.hpp"
#include "evolve/genome.hpp"

namespace cellgan::core::protocol {

enum Tag : int {
  kNodeName = 1,       ///< slave -> master at startup (Fig. 3 "send node name")
  kRunTask = 2,        ///< master -> slave: cell assignment; Inactive -> Processing
  kStatusRequest = 3,  ///< heartbeat thread -> slave main thread
  kStatusReply = 4,    ///< slave main thread -> heartbeat thread
  kFinished = 5,       ///< slave -> master: final result; Processing -> Finished
  kShutdown = 6,       ///< master -> slave: everything collected, exit
  /// slave -> master after every epoch: this rank's serialized
  /// core::CellEpochRecord (observer record forwarding). Sent out-of-band
  /// (no virtual-time cost) so observation never perturbs the simulated
  /// clocks; the master drains and republishes them through its EventBus.
  kEpochRecord = 7,
  /// slave -> master at the start of a recovery generation: the epoch of
  /// this rank's newest readable RankCheckpoint (kNoCheckpointEpoch when the
  /// rank has none). Out-of-band: negotiation must not move virtual clocks.
  kRecoverOffer = 8,
  /// master -> slave reply: the agreed rollback epoch E = min over offers
  /// (0 = fresh start). Every rank restores its epoch-E checkpoint and
  /// replays iterations E..N-1.
  kRecoverPlan = 9,
};

/// Offer sentinel: "I have no checkpoint" (forces a fresh start, E = 0).
inline constexpr std::uint32_t kNoCheckpointEpoch = 0xFFFFFFFFu;

/// Slave life cycle (Fig. 2).
enum class SlaveState : std::uint32_t {
  kInactive = 0,    ///< no workload received yet
  kProcessing = 1,  ///< training in progress
  kFinished = 2,    ///< training done, waiting for the master to gather
};

const char* to_string(SlaveState state);

/// master -> slave workload assignment.
struct RunTask {
  std::uint32_t cell_id = 0;
  std::uint64_t seed = 0;

  std::vector<std::uint8_t> serialize() const;
  static RunTask deserialize(std::span<const std::uint8_t> bytes);
};

/// slave main thread's answer to a status request.
struct StatusReply {
  SlaveState state = SlaveState::kInactive;
  std::uint32_t iteration = 0;
  std::uint32_t cell_id = 0;

  std::vector<std::uint8_t> serialize() const;
  static StatusReply deserialize(std::span<const std::uint8_t> bytes);
};

/// slave -> master final result.
struct SlaveResult {
  std::uint32_t cell_id = 0;
  evolve::CellGenome center;
  std::vector<double> mixture_weights;
  double virtual_time_s = 0.0;

  std::vector<std::uint8_t> serialize() const;
  static SlaveResult deserialize(std::span<const std::uint8_t> bytes);
};

}  // namespace cellgan::core::protocol
