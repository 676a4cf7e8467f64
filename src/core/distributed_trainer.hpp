// Top-level wiring of the distributed run: an minimpi world of
// grid_cells + 1 ranks, rank 0 the master, ranks 1..n the slaves; the
// LOCAL (slaves only) and GLOBAL (all ranks) communicators are split from
// WORLD exactly as Section III.D describes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "core/config.hpp"
#include "core/cost_model.hpp"
#include "core/master.hpp"
#include "core/trainer_core.hpp"  // TrainOutcome
#include "data/dataset.hpp"
#include "minimpi/runtime.hpp"

namespace cellgan::core {

/// Average of a routine's simulated minutes across slave ranks (index 0 is
/// the master) — the per-slave view the paper's Table IV distributed column
/// reports. Shared by DistributedOutcome and the Session facade's RunResult.
double average_slave_routine_virtual_min(
    std::span<const minimpi::Runtime::RankResult> ranks,
    const std::string& routine);

struct DistributedOutcome {
  double wall_s = 0.0;
  double virtual_makespan_s = 0.0;  ///< master clock at the end of the run
  MasterOutcome master;
  /// Per-rank profilers/clocks (index 0 = master, 1.. = slaves).
  std::vector<minimpi::Runtime::RankResult> ranks;

  /// Average of a routine's simulated minutes across slaves (the per-slave
  /// view the paper's Table IV distributed column reports).
  double slave_routine_virtual_min(const std::string& routine) const;
};

/// Run the full master/slave training. `dataset` is shared read-only by all
/// rank threads (each node in the paper loads its own copy; see DESIGN.md).
DistributedOutcome run_distributed(const TrainingConfig& config,
                                   const data::Dataset& dataset,
                                   const CostModel& cost_model = {});
DistributedOutcome run_distributed(const TrainingConfig& config,
                                   const data::Dataset& dataset,
                                   const CostModel& cost_model,
                                   Master::Options master_options);

// ---- multi-process deployment (TCP transport) -------------------------------

/// This process' identity within a multi-process world (one process per
/// rank; rank 0 is the master). Usually read from the environment that
/// `cellgan_launch` exports — see minimpi/bootstrap.hpp.
struct TcpWorld {
  int world_size = 0;
  int rank = -1;
  std::string rendezvous;   ///< rank 0's host:port (rank 0 binds it)
  double timeout_s = 60.0;  ///< bootstrap / rendezvous deadline
  /// Test hook: invoked on rank 0 with the actual rendezvous endpoint once
  /// the listener is bound (resolves a port-0 request before peers dial in).
  std::function<void(const std::string&)> on_listening;
};

/// Build a TcpWorld from CELLGAN_RANK / CELLGAN_WORLD / CELLGAN_ENDPOINT.
/// nullopt (with a diagnostic) when the environment describes no world.
std::optional<TcpWorld> tcp_world_from_env(std::string* error);

/// Rank-death recovery policy for run_distributed_tcp. When enabled, every
/// slave writes a rolling RankCheckpoint (rank_state.hpp) to `state_dir`
/// after each exchange, and a minimpi::PeerDeathError — instead of killing
/// the run — tears the generation down and restarts it: all surviving ranks
/// re-bootstrap at the same rendezvous (a dead rank's replacement, respawned
/// by cellgan_launch, joins them there), agree on the rollback epoch
/// E = min over the ranks' newest checkpoints, restore, and replay epochs
/// E..N-1 bit-identically to an undisturbed run. Requires the allgather
/// exchange (the lockstep that bounds checkpoint skew to one epoch);
/// silently disabled — with a warning — under kAsyncNeighbors.
struct RecoveryOptions {
  bool enabled = false;
  std::string state_dir;  ///< rolling per-rank checkpoints live here
  int max_restarts = 3;   ///< generation restarts before the error propagates
  /// Real-time deadline for each step of the offer/plan negotiation.
  double negotiation_timeout_s = 60.0;
  /// Chaos hook: when >= 0, this rank raises SIGKILL on itself after
  /// completing the given (absolute) epoch — its checkpoint is already on
  /// disk, making the recovery path deterministically testable.
  std::int64_t kill_at_epoch = -1;
};

/// Environment plumbing for multi-process deployments (set by cellgan_launch,
/// read by the distributed-tcp backend in each rank process).
inline constexpr const char* kEnvRecoverDir = "CELLGAN_RECOVER_DIR";
inline constexpr const char* kEnvMaxRestarts = "CELLGAN_MAX_RESTARTS";
inline constexpr const char* kEnvKillAtEpoch = "CELLGAN_KILL_AT_EPOCH";

/// RecoveryOptions from the CELLGAN_RECOVER_DIR / CELLGAN_MAX_RESTARTS /
/// CELLGAN_KILL_AT_EPOCH environment; enabled iff the directory is set.
RecoveryOptions recovery_options_from_env();

/// Run this process' rank of the master/slave training over real sockets.
/// Exactly the same per-rank code as run_distributed — same seeds, same
/// virtual-time accounting — so per-rank outcomes are bit-identical to the
/// in-process simulation. The returned outcome carries this rank's results:
/// on rank 0 the full MasterOutcome and makespan, on slaves their own rank
/// entry only. Throws minimpi::BootstrapError / TimeoutError /
/// TransportError when the world cannot be formed or a peer dies.
DistributedOutcome run_distributed_tcp(const TcpWorld& world,
                                       const TrainingConfig& config,
                                       const data::Dataset& dataset,
                                       const CostModel& cost_model = {},
                                       Master::Options master_options = {},
                                       RecoveryOptions recovery = {});

}  // namespace cellgan::core
