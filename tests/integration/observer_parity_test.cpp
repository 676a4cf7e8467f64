// Determinism of the unified TrainObserver stream across execution vehicles,
// in the style of the existing parity suites: the serialized EpochRecord
// stream must be bit-identical across the one-lane sequential trainer and
// ParallelTrainer at 1/2/4 lanes (every field of a record is schedule-independent by
// construction), and bit-identical between the in-process distributed
// simulation and a real TCP world on the same seed. That is the guarantee
// that makes telemetry, metric evaluation and checkpoint policies portable
// across backends.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/distributed_trainer.hpp"
#include "core/observer.hpp"
#include "core/parallel_trainer.hpp"
#include "core/session.hpp"
#include "core/workload.hpp"
#include "testsupport/sequential.hpp"

namespace cellgan::core {
namespace {

/// Captures each completed epoch as its serialized wire form — byte equality
/// of two streams is exactly the "bit-identical" claim.
class StreamRecorder final : public TrainObserver {
 public:
  void on_epoch_completed(const EpochRecord& record) override {
    stream.push_back(record.serialize());
  }
  std::vector<std::vector<std::uint8_t>> stream;
};

TrainingConfig parity_config() {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 3;
  config.genome_record_every = 2;  // exercise genome payload parity too
  return config;
}

CostModel table3_cost(const TrainingConfig& config, const data::Dataset& dataset) {
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  CostProfile profile = CostProfile::table3();
  profile.reference_iterations = static_cast<double>(config.iterations);
  return CostModel::calibrated(profile, probe);
}

void expect_streams_identical(const StreamRecorder& a, const StreamRecorder& b,
                              const std::string& label) {
  ASSERT_EQ(a.stream.size(), b.stream.size()) << label;
  for (std::size_t epoch = 0; epoch < a.stream.size(); ++epoch) {
    EXPECT_EQ(a.stream[epoch], b.stream[epoch])
        << label << ": epoch " << epoch << " records differ";
  }
}

TEST(ObserverParityTest, SequentialAndThreadsStreamsBitIdentical) {
  const TrainingConfig config = parity_config();
  const auto dataset = make_matched_dataset(config, 64, 21);
  const CostModel cost = table3_cost(config, dataset);

  StreamRecorder sequential_stream;
  {
    EventBus bus;
    bus.subscribe(&sequential_stream);
    auto trainer = testsupport::sequential_trainer(config, dataset, cost);
    trainer.set_observers(&bus);
    (void)trainer.run();
  }
  ASSERT_EQ(sequential_stream.stream.size(), config.iterations);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StreamRecorder parallel_stream;
    EventBus bus;
    bus.subscribe(&parallel_stream);
    ParallelTrainer trainer(config, dataset, threads, cost);
    trainer.set_observers(&bus);
    (void)trainer.run();
    expect_streams_identical(sequential_stream, parallel_stream,
                             "threads=" + std::to_string(threads));
  }
}

TEST(ObserverParityTest, SessionBackendsPublishTheSameStream) {
  // The same parity through the facade: a Session-subscribed observer sees
  // an identical stream from the sequential and threads backends.
  RunSpec spec;
  spec.config = parity_config();
  spec.dataset.samples = 64;
  spec.dataset.seed = 21;

  StreamRecorder sequential_stream;
  {
    Session session(spec);
    session.observers().subscribe(&sequential_stream);
    (void)session.run();
  }

  RunSpec threads_spec = spec;
  threads_spec.backend = Backend::kThreads;
  threads_spec.threads = 3;
  StreamRecorder threads_stream;
  Session session(threads_spec);
  session.observers().subscribe(&threads_stream);
  (void)session.run();
  expect_streams_identical(sequential_stream, threads_stream, "session");
}

/// One rank of a TCP world on its own thread (private Runtime + transport
/// over loopback), with rank 0 publishing to `bus` — the same harness as the
/// tcp parity suite, plus observation.
void run_tcp_world(const TrainingConfig& config, const data::Dataset& dataset,
                   const CostModel& cost_model, EventBus* rank0_bus) {
  const int world_size = static_cast<int>(config.grid_cells()) + 1;
  std::promise<std::string> endpoint_promise;
  std::shared_future<std::string> endpoint = endpoint_promise.get_future().share();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      TcpWorld world;
      world.world_size = world_size;
      world.rank = rank;
      world.timeout_s = 60.0;
      if (rank == 0) {
        world.rendezvous = "127.0.0.1:0";
        world.on_listening = [&endpoint_promise](const std::string& actual) {
          endpoint_promise.set_value(actual);
        };
      } else {
        world.rendezvous = endpoint.get();
      }
      Master::Options options;
      if (rank == 0) options.observers = rank0_bus;
      (void)run_distributed_tcp(world, config, dataset, cost_model, options);
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(ObserverParityTest, InProcessAndTcpDistributedStreamsBitIdentical) {
  TrainingConfig config = parity_config();
  config.grid_rows = 1;  // 1x2 grid keeps the forked world small
  config.grid_cols = 2;
  const auto dataset = make_matched_dataset(config, 64, 21);
  const CostModel cost = table3_cost(config, dataset);

  StreamRecorder inproc_stream;
  {
    EventBus bus;
    bus.subscribe(&inproc_stream);
    Master::Options options;
    options.observers = &bus;
    (void)run_distributed(config, dataset, cost, options);
  }
  ASSERT_EQ(inproc_stream.stream.size(), config.iterations);

  StreamRecorder tcp_stream;
  EventBus bus;
  bus.subscribe(&tcp_stream);
  run_tcp_world(config, dataset, cost, &bus);
  expect_streams_identical(inproc_stream, tcp_stream, "tcp vs in-process");
}

TEST(ObserverParityTest, DistributedRecordsMatchCollectedResults) {
  // Cross-check the forwarded records against the master's own reduction:
  // the final epoch's fitnesses, genomes and mixtures are the ones the
  // GLOBAL gather collects.
  TrainingConfig config = parity_config();
  config.genome_record_every = config.iterations;  // genomes on the last epoch
  const auto dataset = make_matched_dataset(config, 64, 21);

  EventBus bus;
  StreamRecorder recorder;
  bus.subscribe(&recorder);
  Master::Options options;
  options.observers = &bus;
  const DistributedOutcome outcome =
      run_distributed(config, dataset, CostModel{}, options);

  ASSERT_EQ(recorder.stream.size(), config.iterations);
  const EpochRecord last = EpochRecord::deserialize(recorder.stream.back());
  ASSERT_EQ(last.cells.size(), outcome.master.results.size());
  for (std::size_t cell = 0; cell < last.cells.size(); ++cell) {
    const auto& collected = outcome.master.results[cell];
    EXPECT_EQ(last.cells[cell].g_fitness, collected.center.g_fitness);
    EXPECT_EQ(last.cells[cell].d_fitness, collected.center.d_fitness);
    EXPECT_EQ(last.cells[cell].mixture_weights, collected.mixture_weights);
    const evolve::CellGenome genome = evolve::CellGenome::deserialize(last.cells[cell].genome);
    EXPECT_EQ(genome.generator_params, collected.center.generator_params);
  }
  EXPECT_EQ(last.best_cell(), outcome.master.best_cell);
}

}  // namespace
}  // namespace cellgan::core
