// The slave process (Section III.B, Fig. 2 / Fig. 3 right column).
//
// Two threads, as in the paper: the *main thread* is the communication
// interface with the master (status queries, heartbeat replies, control
// messages) and the *execution thread* runs the cellular GAN training,
// exchanging genomes with neighbor slaves over the LOCAL communicator after
// every epoch. State machine: Inactive --run task--> Processing
// --last iteration--> Finished --master gathers--> exit.
#pragma once

#include <atomic>
#include <functional>

#include <string>

#include "core/cell_trainer.hpp"
#include "core/config.hpp"
#include "core/cost_model.hpp"
#include "core/protocol.hpp"
#include "core/rank_state.hpp"
#include "datastore/sample_store.hpp"
#include "minimpi/comm.hpp"

namespace cellgan::core {

class Slave {
 public:
  struct Options {
    double poll_timeout_s = 0.005;  ///< main-thread mailbox poll granularity
    /// Test hook: invoked after each training iteration on the execution
    /// thread (e.g. to inject delays for heartbeat fault tests).
    std::function<void(std::uint32_t)> on_iteration;
    /// Test hook: when set, the main thread stops answering status requests
    /// (simulates a hung slave for the unresponsive-detection path).
    std::atomic<bool>* mute_heartbeat = nullptr;
    /// First training iteration to run (the recovery negotiation's rollback
    /// epoch E); iterations E..N-1 execute. 0 trains from scratch.
    std::uint32_t resume_epoch = 0;
    /// This rank's epoch-E checkpoint when resume_epoch > 0 (owned by the
    /// caller, must outlive run()): trainer state, neighbor inbox, virtual
    /// clock and jitter-stream position are restored from it so the replay
    /// of E..N-1 is bit-identical to an undisturbed run.
    const RankCheckpoint* restore = nullptr;
    /// When non-empty, a rolling RankCheckpoint is written here after every
    /// exchange (two alternating slots per rank; see rank_state.hpp). The
    /// write is strict — rejoin depends on the file.
    std::string state_dir;
  };

  Slave(minimpi::Comm& world, minimpi::Comm& local, minimpi::Comm& global,
        datastore::SampleStore dataset, const CostModel& cost_model);
  Slave(minimpi::Comm& world, minimpi::Comm& local, minimpi::Comm& global,
        datastore::SampleStore dataset, const CostModel& cost_model,
        Options options);

  /// Full life cycle; returns this slave's final result (also sent to the
  /// master through the GLOBAL gather).
  protocol::SlaveResult run();

  protocol::SlaveState state() const { return state_.load(); }

 private:
  void main_thread_loop(std::atomic<bool>& training_done);

  minimpi::Comm& world_;
  minimpi::Comm& local_;
  minimpi::Comm& global_;
  datastore::SampleStore dataset_;
  CostModel cost_model_;  // by value: callers may pass temporaries
  Options options_;
  std::atomic<protocol::SlaveState> state_{protocol::SlaveState::kInactive};
  std::atomic<std::uint32_t> iteration_{0};
  std::uint32_t cell_id_ = 0;
};

}  // namespace cellgan::core
