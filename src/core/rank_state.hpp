// Per-rank rolling training-state checkpoints for crash recovery.
//
// The grid Checkpoint (checkpoint.hpp) persists what the exchange protocol
// moves — center genomes and mixture weights — which is enough to *restart*
// training but not to *replay* it: Adam moments, rng stream positions, the
// loader's shuffle order and the neighbor inbox all shape the trajectory.
// A RankCheckpoint carries that complete state for one slave rank, so a
// world that loses a rank can roll every survivor back to a common epoch E
// and re-run epochs E..N-1 bit-identically to an undisturbed run (the
// survivor-parity guarantee of the recovery protocol).
//
// Each rank keeps *two* rolling files in alternating slots
// (`rank<R>.a.rck` / `rank<R>.b.rck`), written atomically after every
// exchange. The lockstep allgather bounds inter-rank checkpoint skew to one
// epoch, so the rollback epoch E = min over the ranks' latest checkpoints is
// guaranteed to live in every rank's {latest-1, latest} pair.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "evolve/genome.hpp"

namespace cellgan::core {

/// Complete resume state of one slave rank at the start of iteration
/// `epoch` (i.e. after step/exchange `epoch - 1`).
struct RankCheckpoint {
  std::uint32_t epoch = 0;  ///< completed training iterations (absolute)
  std::vector<std::uint8_t> trainer_state;  ///< CellTrainer full state
  std::vector<evolve::SharedGenome> gathered;  ///< last exchange's inbox
  double clock_s = 0.0;              ///< rank virtual clock at the snapshot
  common::Rng::State jitter_rng;     ///< rank jitter-stream position

  std::vector<std::uint8_t> serialize() const;
  static RankCheckpoint deserialize(std::span<const std::uint8_t> bytes);
};

/// File of `rank`'s rolling slot (0 = ".a.rck", 1 = ".b.rck") under `dir`.
std::string rank_checkpoint_path(const std::string& dir, int rank, int slot);

/// Atomically write `checkpoint` into `rank`'s slot `epoch % 2`. Throws
/// CheckpointWriteError on any I/O failure — rejoin depends on this file.
void save_rank_checkpoint(const std::string& dir, int rank,
                          const RankCheckpoint& checkpoint);

/// The newest readable checkpoint for `rank` across both slots; nullopt when
/// none exists (fresh world) or both files are unreadable.
std::optional<RankCheckpoint> load_latest_rank_checkpoint(const std::string& dir,
                                                          int rank);

/// The checkpoint for `rank` at exactly `epoch`, from whichever slot holds
/// it; nullopt when neither does.
std::optional<RankCheckpoint> load_rank_checkpoint_at(const std::string& dir,
                                                      int rank,
                                                      std::uint32_t epoch);

}  // namespace cellgan::core
