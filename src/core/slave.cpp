#include "core/slave.hpp"

#include <exception>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "core/comm_manager.hpp"
#include "core/observer.hpp"
#include "evolve/grid.hpp"
#include "minimpi/errors.hpp"

namespace cellgan::core {

Slave::Slave(minimpi::Comm& world, minimpi::Comm& local, minimpi::Comm& global,
             datastore::SampleStore dataset, const CostModel& cost_model)
    : Slave(world, local, global, std::move(dataset), cost_model, Options{}) {}

Slave::Slave(minimpi::Comm& world, minimpi::Comm& local, minimpi::Comm& global,
             datastore::SampleStore dataset, const CostModel& cost_model,
             Options options)
    : world_(world),
      local_(local),
      global_(global),
      dataset_(std::move(dataset)),
      cost_model_(cost_model),
      options_(std::move(options)) {
  CG_EXPECT(world_.rank() >= 1);
}

protocol::SlaveResult Slave::run() {
  CG_EXPECT(options_.resume_epoch == 0 || options_.restore != nullptr);
  // Fig. 3: announce which node this slave landed on.
  const std::string node_name = "node-" + std::to_string(world_.rank());
  world_.send(0, protocol::kNodeName,
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(node_name.data()),
                  node_name.size()));

  // Receive the shared parameter configuration (WORLD broadcast) and this
  // slave's workload assignment.
  std::vector<std::uint8_t> config_bytes;
  world_.bcast(config_bytes, /*root=*/0);
  const TrainingConfig config = TrainingConfig::deserialize(config_bytes);

  const auto task_msg = world_.recv(0, protocol::kRunTask);
  const protocol::RunTask task = protocol::RunTask::deserialize(task_msg.payload);
  cell_id_ = task.cell_id;
  CG_EXPECT(static_cast<int>(cell_id_) == local_.rank());
  state_.store(protocol::SlaveState::kProcessing);

  // Assemble the execution grid from the configuration (Fig. 3 "assemble
  // execution grid") and launch the execution thread for the training.
  evolve::Grid grid(static_cast<int>(config.grid_rows), static_cast<int>(config.grid_cols));
  ExecContext context;
  context.mode = ExecMode::Distributed;
  context.grid_cells = grid.size();
  context.cost = &cost_model_;
  context.clock = &world_.clock();
  context.profiler = &world_.profiler();
  context.jitter_rng = &world_.jitter_rng();
  // Which node did this slave land on? Drawn once per run (best-effort
  // cluster model); scales every compute charge below.
  context.node_factor = cost_model_.node_factor(world_.jitter_rng());

  if (options_.restore != nullptr) {
    // Rejoin: the protocol preamble above replayed exactly as in the
    // original generation (same message sizes, same fresh-stream node_factor
    // draw), so snapping the clock and jitter stream to the checkpoint puts
    // the replayed epochs on the same virtual timeline as the undisturbed
    // run. wait_until is monotonic: the checkpoint was taken at or after
    // this point of the protocol.
    CG_EXPECT(options_.restore->epoch == options_.resume_epoch);
    world_.clock().wait_until(options_.restore->clock_s);
    world_.jitter_rng().restore_state(options_.restore->jitter_rng);
    iteration_.store(options_.restore->epoch);
  }

  common::Rng master_rng(task.seed);
  protocol::SlaveResult result;
  std::atomic<bool> training_done{false};
  std::exception_ptr exec_error;

  std::thread execution_thread([&] {
    common::set_thread_log_label("rank " + std::to_string(world_.rank()) + " exec");
    try {
      CellTrainer cell(config, grid, static_cast<int>(cell_id_), dataset_,
                       master_rng.fork(cell_id_), context);
      MpiCommManager comm_manager(local_);
      std::vector<evolve::SharedGenome> gathered(grid.size());
      if (options_.restore != nullptr) {
        cell.restore_training_state(options_.restore->trainer_state);
        gathered = options_.restore->gathered;
      }
      for (std::uint32_t iter = options_.resume_epoch; iter < config.iterations;
           ++iter) {
        if (world_.peer_lost(0)) {
          throw minimpi::PeerDeathError(
              0, "slave rank " + std::to_string(world_.rank()) +
                     ": master died (" + world_.peer_loss_reason(0) + ")");
        }
        cell.step(gathered);
        iteration_.store(cell.iteration());
        {
          // Gather: exchange center genomes with the LOCAL communicator. Both
          // measured and simulated cost come from the actual messages.
          common::WallTimer gather_wall;
          const double vt_before = world_.clock().now();
          gathered = comm_manager.exchange(cell.export_genome(),
                                           cell.exchange_sources(cell.iteration()),
                                           cell.exchange_readers(cell.iteration()));
          world_.profiler().add(common::routine::kGather, gather_wall.elapsed_s(),
                                world_.clock().now() - vt_before);
        }
        if (!options_.state_dir.empty()) {
          // Rolling recovery checkpoint: the state at the start of iteration
          // iter+1 (post-step trainer + this exchange's inbox). Pure wall
          // work — the virtual clocks never see it.
          RankCheckpoint snapshot;
          snapshot.epoch = iter + 1;
          snapshot.trainer_state = cell.serialize_training_state();
          snapshot.gathered = gathered;
          snapshot.clock_s = world_.clock().now();
          snapshot.jitter_rng = world_.jitter_rng().state();
          save_rank_checkpoint(options_.state_dir, world_.rank(), snapshot);
        }
        if (config.forward_records != 0) {
          // Forward this epoch's observer record to rank 0 — out-of-band, so
          // observation never perturbs the simulated clocks the parity suites
          // pin. Sent before the eventual Finished report on the same ordered
          // channel; the master drains them after all slaves finish. The flag
          // arrived with the config broadcast: no observers, no traffic.
          const auto record_bytes =
              cell.epoch_record(iter, world_.clock().now()).serialize();
          world_.send_oob(0, protocol::kEpochRecord, record_bytes);
        }
        if (options_.on_iteration) options_.on_iteration(iter);
      }
      result.cell_id = cell_id_;
      result.center = cell.center_genome();
      result.mixture_weights = cell.mixture().weights();
    } catch (...) {
      // Surfaced on the protocol thread after the join below — an escaped
      // exception here would std::terminate the process instead of giving
      // the recovery loop a chance to restart the generation.
      exec_error = std::current_exception();
    }
    training_done.store(true);
  });

  // Main thread: communication interface with the master.
  main_thread_loop(training_done);
  execution_thread.join();
  if (exec_error) std::rethrow_exception(exec_error);

  // Last iteration done: Processing -> Finished (Fig. 2).
  state_.store(protocol::SlaveState::kFinished);
  result.virtual_time_s = world_.clock().now();
  world_.send(0, protocol::kFinished, {});

  // Keep serving control messages until the master releases us, then join
  // the GLOBAL result gather.
  for (;;) {
    auto m = world_.recv(0, minimpi::kAnyTag);
    if (m.tag == protocol::kShutdown) break;
    if (m.tag == protocol::kStatusRequest) answer_status();
  }
  const auto result_bytes = result.serialize();
  global_.gather(result_bytes, /*root=*/0);
  return result;
}

void Slave::main_thread_loop(std::atomic<bool>& training_done) {
  while (!training_done.load()) {
    auto m = world_.recv_for(0, minimpi::kAnyTag, options_.poll_timeout_s);
    if (!m) continue;
    if (m->tag == protocol::kStatusRequest) {
      if (options_.mute_heartbeat != nullptr && options_.mute_heartbeat->load()) {
        continue;  // simulate an unresponsive slave
      }
      answer_status();
    } else {
      common::log_warn() << "slave: unexpected tag " << m->tag
                         << " while processing";
    }
  }
}

void Slave::answer_status() {
  protocol::StatusReply reply{state_.load(), iteration_.load(), cell_id_};
  const auto bytes = reply.serialize();
  world_.send_oob(0, protocol::kStatusReply, bytes);
  status_replies_.fetch_add(1);
}

}  // namespace cellgan::core
