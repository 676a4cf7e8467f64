// The core observability surface in isolation: record serialization (the
// wire format slaves forward to rank 0 and the parity suite compares bit for
// bit), EventBus dispatch order and metric republication, the JSONL
// telemetry sink's line format, the checkpoint policy observer's cadence,
// and a whole sequential-backend run publishing the expected stream.
#include "core/observer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/workload.hpp"
#include "testsupport/sequential.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

CellEpochRecord make_record(std::uint32_t cell, std::uint32_t epoch) {
  CellEpochRecord record;
  record.cell = cell;
  record.epoch = epoch;
  record.g_fitness = 0.25 + cell;
  record.d_fitness = 0.5 + cell;
  record.g_learning_rate = 2e-4;
  record.d_learning_rate = 3e-4;
  record.loss_kind = 1;
  record.virtual_s = 12.5 * (cell + 1);
  record.train_flops = 1e6 * (epoch + 1);
  return record;
}

evolve::CellGenome make_genome(std::uint32_t cell) {
  evolve::CellGenome genome;
  genome.generator_params = {0.5f, -1.0f, static_cast<float>(cell)};
  genome.discriminator_params = {2.0f};
  genome.g_fitness = 0.25 + cell;
  genome.origin_cell = cell;
  genome.iteration = 40 + cell;  // absolute counter, survives restore
  return genome;
}

/// Records every hook invocation in order, plus the serialized epoch records.
class RecordingObserver final : public TrainObserver {
 public:
  void on_run_started(const RunInfo& info) override {
    events.push_back("run_started:" + info.backend);
  }
  void on_epoch_started(std::uint32_t epoch) override {
    events.push_back("epoch_started:" + std::to_string(epoch));
  }
  void on_cell_stepped(const CellEpochRecord& record) override {
    events.push_back("cell:" + std::to_string(record.epoch) + ":" +
                     std::to_string(record.cell));
  }
  void on_epoch_completed(const EpochRecord& record) override {
    events.push_back("epoch_completed:" + std::to_string(record.epoch));
    epoch_records.push_back(record);
  }
  void on_metrics(const MetricSnapshot& snapshot) override {
    events.push_back("metrics:" + std::to_string(snapshot.epoch));
  }
  void on_run_completed(const RunSummary& summary) override {
    events.push_back("run_completed:" + summary.backend);
  }

  std::vector<std::string> events;
  std::vector<EpochRecord> epoch_records;
};

TEST(ObserverTest, CellEpochRecordRoundTripsByteExact) {
  CellEpochRecord record = make_record(3, 7);
  record.genome = make_genome(3).serialize();
  record.mixture_weights = {0.5, 0.25, 0.25};

  const auto bytes = record.serialize();
  const CellEpochRecord back = CellEpochRecord::deserialize(bytes);
  EXPECT_EQ(back, record);
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(ObserverTest, EpochRecordRoundTripsAndDerives) {
  EpochRecord record;
  record.epoch = 4;
  record.cells = {make_record(0, 4), make_record(1, 4), make_record(2, 4)};
  record.cells[1].g_fitness = -1.0;  // best
  record.cells[2].virtual_s = 99.0;

  const auto bytes = record.serialize();
  const EpochRecord back = EpochRecord::deserialize(bytes);
  EXPECT_EQ(back, record);
  EXPECT_EQ(back.serialize(), bytes);

  EXPECT_EQ(record.best_cell(), 1);
  EXPECT_DOUBLE_EQ(record.max_virtual_s(), 99.0);
  EXPECT_DOUBLE_EQ(record.total_train_flops(), 3e6 * 5);
  EXPECT_FALSE(record.has_genomes());
  for (auto& cell : record.cells) cell.genome = make_genome(cell.cell).serialize();
  EXPECT_TRUE(record.has_genomes());
}

TEST(ObserverTest, TruncatedRecordIsRejected) {
  auto bytes = make_record(0, 0).serialize();
  bytes.pop_back();
  EXPECT_DEATH((void)CellEpochRecord::deserialize(bytes), "precondition");
}

TEST(ObserverTest, EventBusDispatchesInOrderAndRepublishesMetrics) {
  /// An evaluator stand-in: hands the bus one snapshot per completed epoch.
  class FakeEvaluator final : public TrainObserver {
   public:
    void on_epoch_completed(const EpochRecord& record) override {
      pending_ = MetricSnapshot{};
      pending_->epoch = record.epoch;
    }
    std::optional<MetricSnapshot> take_metrics() override {
      auto taken = pending_;
      pending_.reset();
      return taken;
    }
    std::optional<MetricSnapshot> final_metrics() const override {
      return MetricSnapshot{};
    }

   private:
    std::optional<MetricSnapshot> pending_;
  };

  EventBus bus;
  EXPECT_TRUE(bus.empty());
  RecordingObserver recorder;
  FakeEvaluator evaluator;
  bus.subscribe(&recorder);
  bus.subscribe(&evaluator);
  EXPECT_FALSE(bus.empty());

  bus.run_started(RunInfo{"sequential", TrainingConfig::tiny()});
  bus.epoch_started(0);
  bus.cell_stepped(make_record(0, 0));
  EpochRecord epoch;
  epoch.epoch = 0;
  epoch.cells = {make_record(0, 0)};
  bus.epoch_completed(epoch);
  RunSummary summary;
  summary.backend = "sequential";
  bus.run_completed(summary);

  const std::vector<std::string> expected = {
      "run_started:sequential", "epoch_started:0", "cell:0:0",
      "epoch_completed:0",      "metrics:0",       "run_completed:sequential"};
  EXPECT_EQ(recorder.events, expected);
}

TEST(ObserverTest, JsonlTelemetrySinkWritesSelfDescribingLines) {
  testsupport::TempDir dir("telemetry");
  const std::string path = dir.file("run.jsonl").string();
  {
    JsonlTelemetrySink sink(path);
    ASSERT_TRUE(sink.ok());
    RunInfo info{"threads", TrainingConfig::tiny()};
    sink.on_run_started(info);
    EpochRecord epoch;
    epoch.epoch = 2;
    epoch.cells = {make_record(0, 2), make_record(1, 2)};
    sink.on_epoch_completed(epoch);
    MetricSnapshot snapshot;
    snapshot.epoch = 2;
    snapshot.cell_is = {1.5, 2.5};
    snapshot.mixture_is = 3.0;
    snapshot.fid = 7.25;
    snapshot.modes_covered = 6;
    sink.on_metrics(snapshot);
    RunSummary summary;
    summary.backend = "threads";
    summary.g_fitnesses = {0.25, 1.25};
    sink.on_run_completed(summary);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"event\":\"run_started\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schema_version\":" +
                          std::to_string(kRunJsonSchemaVersion)),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"backend\":\"threads\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"g_fitnesses\":[0.25,1.25]"), std::string::npos);
  EXPECT_NE(lines[2].find("\"event\":\"metrics\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"mixture_is\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"modes_covered\":6"), std::string::npos);
  EXPECT_NE(lines[3].find("\"event\":\"run_completed\""), std::string::npos);
}

TEST(ObserverTest, TelemetrySinkReportsUnopenablePath) {
  JsonlTelemetrySink sink("/no/such/dir/run.jsonl");
  EXPECT_FALSE(sink.ok());
  // Writing through a failed sink is a no-op, not a crash.
  sink.on_epoch_started(0);
  sink.on_metrics(MetricSnapshot{});
}

TEST(ObserverTest, CheckpointPolicyWritesOnCadenceEpochsWithGenomes) {
  testsupport::TempDir dir("checkpoint_policy");
  const std::string path = dir.file("rolling.ckpt").string();
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 1;
  config.grid_cols = 2;
  CheckpointPolicyObserver policy(path, /*every=*/2, config);

  const auto epoch_with_genomes = [&](std::uint32_t epoch) {
    EpochRecord record;
    record.epoch = epoch;
    for (std::uint32_t cell = 0; cell < 2; ++cell) {
      record.cells.push_back(make_record(cell, epoch));
      record.cells.back().genome = make_genome(cell).serialize();
      record.cells.back().mixture_weights = {0.75, 0.25};
    }
    return record;
  };

  policy.on_epoch_completed(epoch_with_genomes(0));  // epoch 1: off-cadence
  EXPECT_EQ(policy.checkpoints_written(), 0u);
  EXPECT_FALSE(load_checkpoint(path).has_value());

  EpochRecord no_genomes = epoch_with_genomes(1);
  for (auto& cell : no_genomes.cells) cell.genome.clear();
  policy.on_epoch_completed(no_genomes);  // cadence epoch, no payload
  EXPECT_EQ(policy.checkpoints_written(), 0u);

  policy.on_epoch_completed(epoch_with_genomes(3));  // epoch 4: cadence hit
  EXPECT_EQ(policy.checkpoints_written(), 1u);
  const auto snapshot = load_checkpoint(path);
  ASSERT_TRUE(snapshot.has_value());
  // Iteration comes from the genomes' absolute counters (max over cells),
  // not the run-relative epoch, so resumed runs keep honest progress.
  EXPECT_EQ(snapshot->iteration, 41u);
  ASSERT_EQ(snapshot->centers.size(), 2u);
  EXPECT_EQ(snapshot->centers[1].generator_params,
            make_genome(1).generator_params);
  EXPECT_EQ(snapshot->mixtures[0], (std::vector<double>{0.75, 0.25}));
}

TEST(ObserverTest, SequentialRunPublishesTheFullStream) {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 3;
  config.genome_record_every = 2;
  const auto dataset = make_matched_dataset(config, 64, 5);

  EventBus bus;
  RecordingObserver recorder;
  bus.subscribe(&recorder);
  auto trainer = testsupport::sequential_trainer(config, dataset);
  trainer.set_observers(&bus);
  const TrainOutcome outcome = trainer.run();

  ASSERT_EQ(recorder.epoch_records.size(), 3u);
  for (std::uint32_t epoch = 0; epoch < 3; ++epoch) {
    const EpochRecord& record = recorder.epoch_records[epoch];
    EXPECT_EQ(record.epoch, epoch);
    ASSERT_EQ(record.cells.size(), 4u);
    for (std::uint32_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(record.cells[cell].cell, cell);
      EXPECT_EQ(record.cells[cell].epoch, epoch);
    }
    // Genome payloads exactly on the configured cadence.
    EXPECT_EQ(record.has_genomes(), (epoch + 1) % 2 == 0) << "epoch " << epoch;
  }
  // The final epoch's fitnesses are the run outcome's.
  const EpochRecord& last = recorder.epoch_records.back();
  for (std::size_t cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(last.cells[cell].g_fitness, outcome.g_fitnesses[cell]);
    EXPECT_EQ(last.cells[cell].d_fitness, outcome.d_fitnesses[cell]);
  }
  EXPECT_EQ(last.best_cell(), outcome.best_cell);
  EXPECT_EQ(last.total_train_flops(), outcome.train_flops);

  // Event order: every epoch is started, its cells step in id order, then it
  // completes — 3 epochs x (1 + 4 + 1) events.
  ASSERT_EQ(recorder.events.size(), 18u);
  EXPECT_EQ(recorder.events[0], "epoch_started:0");
  EXPECT_EQ(recorder.events[1], "cell:0:0");
  EXPECT_EQ(recorder.events[4], "cell:0:3");
  EXPECT_EQ(recorder.events[5], "epoch_completed:0");
  EXPECT_EQ(recorder.events[17], "epoch_completed:2");
}

TEST(ObserverTest, ObservationDoesNotPerturbTraining) {
  // The whole contract of the seam: subscribing observers must not change
  // the training trajectory — same fitnesses, flops and virtual time as an
  // unobserved run.
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 2;
  config.iterations = 2;
  const auto dataset = make_matched_dataset(config, 64, 5);

  auto bare = testsupport::sequential_trainer(config, dataset);
  const TrainOutcome reference = bare.run();

  TrainingConfig observed_config = config;
  observed_config.genome_record_every = 1;
  EventBus bus;
  RecordingObserver recorder;
  bus.subscribe(&recorder);
  auto observed = testsupport::sequential_trainer(observed_config, dataset);
  observed.set_observers(&bus);
  const TrainOutcome outcome = observed.run();

  EXPECT_EQ(outcome.g_fitnesses, reference.g_fitnesses);
  EXPECT_EQ(outcome.d_fitnesses, reference.d_fitnesses);
  EXPECT_EQ(outcome.train_flops, reference.train_flops);
  EXPECT_EQ(outcome.virtual_s, reference.virtual_s);
}

}  // namespace
}  // namespace cellgan::core
