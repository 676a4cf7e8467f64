#include "core/distributed_trainer.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/rank_state.hpp"
#include "core/slave.hpp"
#include "minimpi/bootstrap.hpp"
#include "minimpi/errors.hpp"
#include "minimpi/tcp_transport.hpp"

namespace cellgan::core {

namespace {

/// Out-of-band control receive for the recovery negotiation: sliced so a
/// peer dying mid-negotiation raises PeerDeathError immediately; silence
/// past the deadline becomes TimeoutError. Never touches the virtual clock.
minimpi::Message recv_oob_or_die(minimpi::Comm& world, int src, int tag,
                                 double timeout_s) {
  common::WallTimer quiet;
  for (;;) {
    if (auto m = world.recv_oob_for(src, tag, std::min(timeout_s, 0.1))) {
      return std::move(*m);
    }
    if (world.peer_lost(src)) {
      throw minimpi::PeerDeathError(
          src, "recovery negotiation: rank " + std::to_string(src) + " died (" +
                   world.peer_loss_reason(src) + ")");
    }
    if (quiet.elapsed_s() >= timeout_s) {
      throw minimpi::TimeoutError(
          "recovery negotiation: no reply from rank " + std::to_string(src) +
          " within " + std::to_string(timeout_s) + "s");
    }
  }
}

void send_oob_epoch(minimpi::Comm& world, int dst, int tag, std::uint32_t epoch) {
  world.send_oob(dst, tag,
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(&epoch), sizeof(epoch)));
}

/// Agree on the rollback epoch E for this generation (Fig: offer/plan over
/// WORLD, out-of-band). Every slave offers the epoch of its newest readable
/// RankCheckpoint (kNoCheckpointEpoch when it has none, e.g. a respawned
/// rank that died before its first exchange); rank 0 replies with the
/// minimum, 0 meaning a fresh start. The allgather lockstep bounds
/// inter-rank checkpoint skew to one epoch, so E is guaranteed to live in
/// every rank's two-slot rolling pair; slaves load it into `restored`.
std::uint32_t negotiate_rollback(minimpi::Comm& world,
                                 const RecoveryOptions& recovery,
                                 std::optional<RankCheckpoint>* restored) {
  const int slaves = world.size() - 1;
  if (world.rank() == 0) {
    std::uint32_t plan = protocol::kNoCheckpointEpoch;
    for (int rank = 1; rank <= slaves; ++rank) {
      const auto m = recv_oob_or_die(world, rank, protocol::kRecoverOffer,
                                     recovery.negotiation_timeout_s);
      plan = std::min(plan, minimpi::Comm::value_of<std::uint32_t>(m));
    }
    if (plan == protocol::kNoCheckpointEpoch) plan = 0;
    for (int rank = 1; rank <= slaves; ++rank) {
      send_oob_epoch(world, rank, protocol::kRecoverPlan, plan);
    }
    if (plan > 0) {
      common::log_info() << "recovery: rolling the world back to epoch " << plan;
    }
    return plan;
  }

  auto latest = load_latest_rank_checkpoint(recovery.state_dir, world.rank());
  const std::uint32_t offer =
      latest ? latest->epoch : protocol::kNoCheckpointEpoch;
  send_oob_epoch(world, 0, protocol::kRecoverOffer, offer);
  const auto m = recv_oob_or_die(world, 0, protocol::kRecoverPlan,
                                 recovery.negotiation_timeout_s);
  const auto plan = minimpi::Comm::value_of<std::uint32_t>(m);
  if (plan > 0) {
    if (latest && latest->epoch == plan) {
      *restored = std::move(latest);
    } else {
      *restored = load_rank_checkpoint_at(recovery.state_dir, world.rank(), plan);
    }
    if (!restored->has_value()) {
      // Skew-bound violation or on-disk corruption: unrecoverable by
      // retrying from the same state, so propagate past the recovery loop.
      throw std::runtime_error(
          "recovery: rank " + std::to_string(world.rank()) +
          " has no readable checkpoint for the agreed epoch " +
          std::to_string(plan) + " under " + recovery.state_dir);
    }
  }
  return plan;
}

/// One rank's life in the master/slave deployment — identical whether the
/// world is thread-per-rank or one process per rank, which is what makes the
/// TCP deployment bit-compatible with the in-process simulation.
void distributed_rank_main(minimpi::Comm& world, const TrainingConfig& config,
                           const data::Dataset& dataset,
                           const CostModel& cost_model,
                           const Master::Options& master_options,
                           const RecoveryOptions& recovery,
                           MasterOutcome* master_outcome,
                           std::mutex* outcome_mutex) {
  // Rollback negotiation first (out-of-band, clock-neutral): a fresh world
  // agrees on E = 0 and proceeds exactly as before recovery existed.
  std::uint32_t resume_epoch = 0;
  std::optional<RankCheckpoint> restored;
  if (recovery.enabled) {
    resume_epoch = negotiate_rollback(world, recovery, &restored);
  }

  // Communicator contexts (Section III.D): LOCAL excludes the master,
  // GLOBAL includes everyone. Splits are collective over WORLD.
  auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
  auto global = world.split(0, world.rank());
  CG_EXPECT(global.has_value());

  if (world.rank() == 0) {
    Master::Options options = master_options;
    options.resume_epoch = resume_epoch;
    Master master(world, *global, config, cost_model, options);
    MasterOutcome outcome = master.run();
    std::lock_guard<std::mutex> lock(*outcome_mutex);
    *master_outcome = std::move(outcome);
  } else {
    CG_EXPECT(local.has_value());
    Slave::Options slave_options;
    slave_options.resume_epoch = resume_epoch;
    slave_options.restore = restored.has_value() ? &*restored : nullptr;
    if (recovery.enabled) slave_options.state_dir = recovery.state_dir;
    if (recovery.kill_at_epoch >= 0) {
      const int rank = world.rank();
      slave_options.on_iteration = [rank,
                                    kill = recovery.kill_at_epoch](std::uint32_t iter) {
        if (static_cast<std::int64_t>(iter) == kill) {
          common::log_warn() << "chaos: rank " << rank
                             << " raising SIGKILL after epoch " << iter;
          ::raise(SIGKILL);
        }
      };
    }
    Slave slave(world, *local, *global, dataset, cost_model, slave_options);
    slave.run();
  }
}

}  // namespace

double average_slave_routine_virtual_min(
    std::span<const minimpi::Runtime::RankResult> ranks,
    const std::string& routine) {
  if (ranks.size() <= 1) return 0.0;
  double total = 0.0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    total += ranks[r].profiler.cost(routine).virtual_s;
  }
  return total / static_cast<double>(ranks.size() - 1) / 60.0;
}

double DistributedOutcome::slave_routine_virtual_min(const std::string& routine) const {
  return average_slave_routine_virtual_min(ranks, routine);
}

DistributedOutcome run_distributed(const TrainingConfig& config,
                                   const data::Dataset& dataset,
                                   const CostModel& cost_model) {
  return run_distributed(config, dataset, cost_model, Master::Options{});
}

DistributedOutcome run_distributed(const TrainingConfig& config,
                                   const data::Dataset& dataset,
                                   const CostModel& cost_model,
                                   Master::Options master_options) {
  const int world_size = static_cast<int>(config.grid_cells()) + 1;
  minimpi::Runtime runtime(world_size, cost_model.net_config(), config.seed);

  DistributedOutcome outcome;
  std::mutex outcome_mutex;
  common::WallTimer wall;

  auto rank_results = runtime.run([&](minimpi::Comm& world) {
    distributed_rank_main(world, config, dataset, cost_model, master_options,
                          RecoveryOptions{}, &outcome.master, &outcome_mutex);
  });

  outcome.wall_s = wall.elapsed_s();
  outcome.ranks = std::move(rank_results);
  outcome.virtual_makespan_s = outcome.master.virtual_makespan_s;
  return outcome;
}

RecoveryOptions recovery_options_from_env() {
  RecoveryOptions recovery;
  if (const char* dir = std::getenv(kEnvRecoverDir);
      dir != nullptr && dir[0] != '\0') {
    recovery.enabled = true;
    recovery.state_dir = dir;
  }
  if (const char* max = std::getenv(kEnvMaxRestarts);
      max != nullptr && max[0] != '\0') {
    recovery.max_restarts = std::atoi(max);
  }
  if (const char* kill = std::getenv(kEnvKillAtEpoch);
      kill != nullptr && kill[0] != '\0') {
    recovery.kill_at_epoch = std::atoll(kill);
  }
  return recovery;
}

std::optional<TcpWorld> tcp_world_from_env(std::string* error) {
  const auto env = minimpi::world_from_env(error);
  if (!env) return std::nullopt;
  TcpWorld world;
  world.world_size = env->world_size;
  world.rank = env->rank;
  world.rendezvous = env->rendezvous;
  return world;
}

namespace {

/// One generation of the TCP deployment: bootstrap at `rendezvous`, run this
/// rank to completion (or to a thrown error), tear everything down. On rank 0
/// `rendezvous` is updated to the concrete bound endpoint so a follow-up
/// generation rebinds the very address the other ranks will redial — even
/// when the caller asked for port 0.
DistributedOutcome run_distributed_tcp_generation(
    const TcpWorld& world_config, std::string* rendezvous, bool announce,
    const TrainingConfig& config, const data::Dataset& dataset,
    const CostModel& cost_model, const Master::Options& master_options,
    const RecoveryOptions& recovery) {
  minimpi::TcpTransportOptions transport_options;
  transport_options.world_size = world_config.world_size;
  transport_options.rank = world_config.rank;
  transport_options.rendezvous = *rendezvous;
  transport_options.timeout_s = world_config.timeout_s;
  auto transport = std::make_unique<minimpi::TcpTransport>(transport_options);
  if (world_config.rank == 0) {
    *rendezvous = transport->rendezvous_endpoint();
    if (announce && world_config.on_listening) {
      world_config.on_listening(*rendezvous);
    }
  }

  // Same world size, net model and seed as the in-process Runtime in
  // run_distributed — the per-rank virtual clocks and jitter streams line up
  // exactly, so this rank's outcome is bit-identical to its simulated twin.
  minimpi::Runtime runtime(world_config.world_size, world_config.rank,
                           std::move(transport), cost_model.net_config(),
                           config.seed);

  DistributedOutcome outcome;
  std::mutex outcome_mutex;
  common::WallTimer wall;
  auto rank_results = runtime.run([&](minimpi::Comm& world) {
    distributed_rank_main(world, config, dataset, cost_model, master_options,
                          recovery, &outcome.master, &outcome_mutex);
  });

  outcome.wall_s = wall.elapsed_s();
  outcome.ranks = std::move(rank_results);
  outcome.virtual_makespan_s =
      world_config.rank == 0
          ? outcome.master.virtual_makespan_s
          : outcome.ranks[static_cast<std::size_t>(world_config.rank)].virtual_time_s;
  return outcome;
}

}  // namespace

DistributedOutcome run_distributed_tcp(const TcpWorld& world_config,
                                       const TrainingConfig& config,
                                       const data::Dataset& dataset,
                                       const CostModel& cost_model,
                                       Master::Options master_options,
                                       RecoveryOptions recovery) {
  const int expected_world = static_cast<int>(config.grid_cells()) + 1;
  if (world_config.world_size != expected_world) {
    throw minimpi::BootstrapError(
        "bootstrap: world size " + std::to_string(world_config.world_size) +
        " does not match the configured grid (" + std::to_string(expected_world) +
        " = " + std::to_string(config.grid_cells()) + " cells + 1 master)");
  }
  if (recovery.enabled &&
      config.exchange_mode == ExchangeMode::kAsyncNeighbors) {
    // The skew-≤1 bound the rollback negotiation rests on comes from the
    // allgather lockstep; the asynchronous exchange offers no such fence.
    common::log_warn() << "recovery: only the allgather exchange is supported; "
                          "disabling rank-death recovery for this run";
    recovery.enabled = false;
  }

  // Generation loop: a detected rank death tears this generation down and
  // the next one re-bootstraps at the same rendezvous — the surviving
  // processes and the respawned rank (relaunched by cellgan_launch with the
  // same environment) meet there and roll back together. Teardown cascades:
  // one rank restarting closes its sockets, which surfaces as PeerDeathError
  // in every peer's death-aware receive, so no rank is left behind in a
  // dead generation.
  std::string rendezvous = world_config.rendezvous;
  for (int attempt = 0;; ++attempt) {
    try {
      return run_distributed_tcp_generation(world_config, &rendezvous,
                                            /*announce=*/attempt == 0, config,
                                            dataset, cost_model, master_options,
                                            recovery);
    } catch (const minimpi::PeerDeathError& e) {
      if (!recovery.enabled || attempt >= recovery.max_restarts) throw;
      common::log_warn() << "rank " << world_config.rank << ": " << e.what()
                         << "; restarting generation (" << attempt + 1 << "/"
                         << recovery.max_restarts << ")";
    }
  }
}

}  // namespace cellgan::core
