// Heartbeat protocol + slave state machine (Fig. 2 / Fig. 3) under a live
// minimpi world: state transitions, status replies, and unresponsive-slave
// detection when a slave mutes its main thread.
#include <gtest/gtest.h>

#include <atomic>

#include "core/distributed_trainer.hpp"
#include "core/heartbeat.hpp"
#include "core/slave.hpp"
#include "core/workload.hpp"

namespace cellgan::core {
namespace {

TEST(HeartbeatTest, MonitorSeesProcessingThenFinished) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 1;
  config.iterations = 30;
  const auto dataset = make_matched_dataset(config, 60, 1);

  std::atomic<bool> saw_processing{false};
  minimpi::Runtime runtime(2);
  runtime.run([&](minimpi::Comm& world) {
    auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
    auto global = world.split(0, world.rank());
    if (world.rank() == 0) {
      Master::Options options;
      options.heartbeat.interval_s = 0.002;
      options.heartbeat.reply_timeout_s = 0.05;
      Master master(world, *global, config, CostModel{}, options);
      const MasterOutcome outcome = master.run();
      EXPECT_EQ(outcome.results.size(), 1u);
    } else {
      // Observe the state machine from the execution thread, which runs
      // on_iteration once per iteration and only while the slave is
      // Processing, so no iteration can slip between two samples.
      const Slave* observed = nullptr;
      Slave::Options slave_options;
      slave_options.on_iteration = [&](std::uint32_t) {
        if (observed->state() == protocol::SlaveState::kProcessing) {
          saw_processing.store(true);
        }
      };
      Slave slave(world, *local, *global, dataset, CostModel{},
                  std::move(slave_options));
      observed = &slave;
      const protocol::SlaveResult result = slave.run();
      EXPECT_EQ(slave.state(), protocol::SlaveState::kFinished);
      EXPECT_EQ(result.cell_id, 0u);
    }
  });
  EXPECT_TRUE(saw_processing.load());
}

TEST(HeartbeatTest, UnresponsiveSlaveTriggersAlarm) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 1;
  config.iterations = 400;  // long enough for several heartbeat cycles
  const auto dataset = make_matched_dataset(config, 60, 2);

  std::atomic<bool> mute{true};  // muted from the start
  std::atomic<int> alarms{0};
  minimpi::Runtime runtime(2);
  runtime.run([&](minimpi::Comm& world) {
    auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
    auto global = world.split(0, world.rank());
    if (world.rank() == 0) {
      // Drive the monitor directly so the alarm callback is observable.
      HeartbeatMonitor::Options hb;
      hb.interval_s = 0.002;
      hb.reply_timeout_s = 0.005;
      hb.miss_threshold = 3;
      HeartbeatMonitor monitor(world, hb);
      monitor.set_on_unresponsive([&](int rank) {
        EXPECT_EQ(rank, 1);
        alarms.fetch_add(1);
        mute.store(false);  // let the slave recover so the run finishes
      });

      Master::Options options;
      options.enable_heartbeat = false;  // we run our own monitor here
      Master master(world, *global, config, CostModel{}, options);
      monitor.start();
      (void)master.run();
      monitor.stop();
    } else {
      Slave::Options slave_options;
      slave_options.mute_heartbeat = &mute;
      Slave slave(world, *local, *global, dataset, CostModel{},
                  std::move(slave_options));
      (void)slave.run();
    }
  });
  EXPECT_GE(alarms.load(), 1);
}

TEST(HeartbeatTest, SnapshotTracksIterationProgress) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 1;
  config.iterations = 200;
  const auto dataset = make_matched_dataset(config, 60, 3);

  std::atomic<std::uint32_t> max_seen{0};
  minimpi::Runtime runtime(2);
  runtime.run([&](minimpi::Comm& world) {
    auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
    auto global = world.split(0, world.rank());
    if (world.rank() == 0) {
      HeartbeatMonitor::Options hb;
      hb.interval_s = 0.001;
      hb.reply_timeout_s = 0.05;
      HeartbeatMonitor monitor(world, hb);
      Master::Options options;
      options.enable_heartbeat = false;
      Master master(world, *global, config, CostModel{}, options);
      monitor.start();
      std::thread sampler([&] {
        for (int i = 0; i < 100; ++i) {
          const auto snapshot = monitor.snapshot();
          if (!snapshot.empty()) {
            max_seen.store(std::max(max_seen.load(), snapshot[0].iteration));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      (void)master.run();
      sampler.join();
      monitor.stop();
    } else {
      Slave slave(world, *local, *global, dataset, CostModel{});
      (void)slave.run();
    }
  });
  EXPECT_GT(max_seen.load(), 0u);  // progress was visible through heartbeats
}

}  // namespace
}  // namespace cellgan::core
