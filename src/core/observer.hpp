// Unified training observability — the one subscription surface every
// execution vehicle reports progress through.
//
// The paper's headline evidence is per-epoch measurement (Table II compares
// generator quality across grid sizes, Table III / Fig. 4 track time per
// epoch), so observation is a first-class seam rather than per-backend ad-hoc
// printing: trainers publish epoch-started / cell-stepped / epoch-completed
// events into a core::EventBus, and any number of core::TrainObservers
// subscribe — a metrics evaluator, a JSONL telemetry sink, a checkpoint
// policy, a test recorder. All four backends (sequential, threads,
// distributed, distributed-tcp) publish the same stream; distributed ranks
// forward their rank-local records to rank 0 over minimpi (protocol tag
// kEpochRecord), so the observer API is location-transparent: subscribing at
// the Session that hosts rank 0 sees the whole grid, whichever vehicle runs
// it.
//
// Determinism contract (pinned by the observer-parity suite): every field of
// an EpochRecord is schedule-independent. Within the in-process family the
// stream is bit-identical across the sequential and threads backends at any
// lane count (a cell's virtual_s is the cell's OWN cumulative simulated
// seconds, not the shared clock); within the distributed family it is
// bit-identical between the thread-per-rank simulation and the TCP
// deployment (a cell's virtual_s is its rank's clock). Events are published
// at epoch barriers in (epoch, cell) order, never live from worker threads,
// so the stream order is deterministic too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"

namespace cellgan::core {

/// Version of the machine-readable output schema shared by the telemetry
/// JSONL stream and the RunResult JSON artifact (session.hpp's
/// write_result_json). Bump on any breaking field change so downstream
/// tooling can detect the format instead of guessing.
inline constexpr std::uint32_t kRunJsonSchemaVersion = 1;

/// One cell's outcome of one training epoch.
struct CellEpochRecord {
  std::uint32_t cell = 0;
  std::uint32_t epoch = 0;  ///< 0-based, run-relative
  /// Losses after this epoch's train step (lower is better) — the per-cell
  /// fitness trajectory behind Table II.
  double g_fitness = 0.0;
  double d_fitness = 0.0;
  /// Mutated Adam learning rates after this epoch.
  double g_learning_rate = 0.0;
  double d_learning_rate = 0.0;
  /// Objective used by this epoch's train step (core::GanLossKind; fixed by
  /// config, or the epoch's Mustangs draw).
  std::uint32_t loss_kind = 0;
  /// Cumulative simulated seconds: in-process trainers bill the cell's own
  /// charges (schedule-independent); distributed ranks report their rank
  /// clock. 0 when virtual time is disabled.
  double virtual_s = 0.0;
  /// Cumulative train-routine flops of this cell.
  double train_flops = 0.0;
  /// Serialized center CellGenome, present only on genome-record epochs
  /// (TrainingConfig::genome_record_every — the cadence the metric evaluator
  /// and checkpoint policy need); empty otherwise.
  std::vector<std::uint8_t> genome;
  /// Neighborhood mixture weights, recorded alongside the genome.
  std::vector<double> mixture_weights;

  /// What this epoch's exchange-policy application did (a flattened
  /// evolve::ExchangeOutcome, so the record stays wire-forwardable from
  /// distributed ranks). `exchange_partner` is -1 when the policy involved no
  /// counterpart this epoch.
  std::uint32_t exchange_policy = 0;  ///< evolve::ExchangePolicyKind
  std::int32_t exchange_partner = -1;
  std::uint8_t exchange_g_adopted = 0;
  std::uint8_t exchange_d_adopted = 0;
  double exchange_g_before = 0.0;  ///< generator fitness entering the exchange
  double exchange_g_after = 0.0;
  double exchange_d_before = 0.0;
  double exchange_d_after = 0.0;
  std::uint64_t exchange_wins = 0;  ///< cumulative LTFB tournaments won
  double exchange_bytes = 0.0;      ///< serialized genome bytes installed

  /// True when this epoch's exchange should surface as an `"event":"exchange"`
  /// telemetry record: something was adopted, or a tournament/rotation
  /// counterpart existed even if the local center won.
  bool exchange_noteworthy() const {
    return exchange_g_adopted != 0 || exchange_d_adopted != 0 ||
           exchange_partner >= 0;
  }

  std::vector<std::uint8_t> serialize() const;
  static CellEpochRecord deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const CellEpochRecord&, const CellEpochRecord&) = default;
};

/// One epoch of the whole grid, cells in cell-id order.
struct EpochRecord {
  std::uint32_t epoch = 0;
  std::vector<CellEpochRecord> cells;

  /// Max over cells' cumulative virtual seconds (derived, deterministic).
  double max_virtual_s() const;
  /// Sum of cells' cumulative train flops.
  double total_train_flops() const;
  /// argmin generator fitness.
  int best_cell() const;
  /// True when every cell carries its serialized genome.
  bool has_genomes() const;

  std::vector<std::uint8_t> serialize() const;
  static EpochRecord deserialize(std::span<const std::uint8_t> bytes);

  friend bool operator==(const EpochRecord&, const EpochRecord&) = default;
};

/// Generator-quality measurements of one evaluation epoch (produced by a
/// metric evaluator observer, e.g. metrics::EvaluatorObserver). Plain data so
/// the core layer can carry it without depending on the metrics layer.
struct MetricSnapshot {
  std::uint32_t epoch = 0;
  int best_cell = 0;
  std::vector<double> cell_is;      ///< per-cell generator inception scores
  double mixture_is = 0.0;          ///< best neighborhood mixture IS
  double fid = 0.0;                 ///< mixture FID vs the real set
  std::size_t modes_covered = 0;    ///< classes the mixture still generates
  double tvd_from_uniform = 0.0;    ///< mixture class-distribution TVD
};

/// One serving request, as completed by the serve batcher (src/serve). The
/// serving plane reuses the training telemetry seam: a ServeObserver
/// publishes these through the same EventBus/JSONL sink that records epochs,
/// so one artifact stream carries a model's whole life — training epochs,
/// checkpoints, then the latencies of the requests it served.
struct ServeRequestRecord {
  std::uint64_t request_id = 0;
  std::uint32_t count = 0;           ///< samples requested
  std::uint32_t batch_requests = 0;  ///< co-batched request count (occupancy)
  std::uint32_t batch_samples = 0;   ///< total rows of the shared forward
  double queue_us = 0.0;             ///< enqueue -> batch close
  double forward_us = 0.0;           ///< the shared forward+scatter pass
  double total_us = 0.0;             ///< enqueue -> response ready
  bool cache_hit = true;             ///< model served from the warm cache
};

/// One micro-batch the serve worker executed.
struct ServeBatchRecord {
  std::uint64_t batch_id = 0;
  std::uint32_t requests = 0;
  std::uint32_t samples = 0;
  double delay_us = 0.0;    ///< first enqueue -> batch close
  double forward_us = 0.0;
};

/// The mapped training file of one run, published by the Session after the
/// backend finishes, for every run that trained from a mapped IDX file: the
/// bytes of that Session's mapping (SampleStore::bytes_mapped).
struct DataStoreRecord {
  std::uint64_t bytes_mapped = 0;
};

/// What a run is, announced once before the first epoch.
struct RunInfo {
  std::string backend;  ///< backend name (core::to_string(Backend))
  TrainingConfig config;
};

/// Final aggregate, announced once after the last epoch (a light view of
/// session.hpp's RunResult, which core cannot include without a cycle).
struct RunSummary {
  std::string backend;
  double wall_s = 0.0;
  double virtual_s = 0.0;
  double train_flops = 0.0;
  std::vector<double> g_fitnesses;
  std::vector<double> d_fitnesses;
  int best_cell = 0;
};

/// Subscriber interface. All hooks default to no-ops so observers override
/// only what they consume. Hooks are invoked from whichever thread drives the
/// run (trainer loop or the distributed master), but never concurrently —
/// the bus publishes at epoch barriers only.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  virtual void on_run_started(const RunInfo& /*info*/) {}
  virtual void on_epoch_started(std::uint32_t /*epoch*/) {}
  virtual void on_cell_stepped(const CellEpochRecord& /*record*/) {}
  /// A cell's exchange-policy application that moved (or tournament-compared)
  /// genomes this epoch. Published after on_cell_stepped for the same record,
  /// only when record.exchange_noteworthy().
  virtual void on_exchange(const CellEpochRecord& /*record*/) {}
  virtual void on_epoch_completed(const EpochRecord& /*record*/) {}
  virtual void on_metrics(const MetricSnapshot& /*snapshot*/) {}
  virtual void on_run_completed(const RunSummary& /*summary*/) {}
  virtual void on_serve_request(const ServeRequestRecord& /*record*/) {}
  virtual void on_serve_batch(const ServeBatchRecord& /*record*/) {}
  virtual void on_data_store(const DataStoreRecord& /*record*/) {}

  /// Evaluators return the snapshot they computed for the epoch just
  /// completed; the bus then publishes it to every observer (so e.g. the
  /// telemetry sink logs metric records without explicit wiring).
  virtual std::optional<MetricSnapshot> take_metrics() { return std::nullopt; }
  /// The run's final metric snapshot, harvested into RunResult::metrics.
  virtual std::optional<MetricSnapshot> final_metrics() const {
    return std::nullopt;
  }
};

/// Fan-out hub. Observers are not owned and must outlive the run; publishers
/// call the publish methods in event order. With no subscribers every publish
/// is a cheap no-op, and producers may skip record assembly entirely
/// (empty() is the fast-path check).
class EventBus {
 public:
  void subscribe(TrainObserver* observer);

  bool empty() const { return observers_.empty(); }
  const std::vector<TrainObserver*>& observers() const { return observers_; }

  void run_started(const RunInfo& info);
  void epoch_started(std::uint32_t epoch);
  void cell_stepped(const CellEpochRecord& record);
  /// Publish the record's exchange outcome; no-op unless
  /// record.exchange_noteworthy().
  void exchange(const CellEpochRecord& record);
  /// Delivers the epoch record, then collects take_metrics() from every
  /// observer and re-publishes each snapshot through metrics().
  void epoch_completed(const EpochRecord& record);
  void metrics(const MetricSnapshot& snapshot);
  void run_completed(const RunSummary& summary);
  /// Serving-plane events. Same single-publisher contract as the epoch
  /// stream: the serve batcher publishes from its one worker thread only.
  void serve_request(const ServeRequestRecord& record);
  void serve_batch(const ServeBatchRecord& record);
  void data_store(const DataStoreRecord& record);

 private:
  std::vector<TrainObserver*> observers_;
};

/// Append-only JSONL event stream: one self-describing JSON object per line
/// (`"event"` names the type; the run_started line carries
/// `"schema_version"`). Lines are flushed as written so a crashed run keeps
/// its telemetry up to the last completed epoch.
class JsonlTelemetrySink final : public TrainObserver {
 public:
  explicit JsonlTelemetrySink(const std::string& path);
  ~JsonlTelemetrySink() override;

  JsonlTelemetrySink(const JsonlTelemetrySink&) = delete;
  JsonlTelemetrySink& operator=(const JsonlTelemetrySink&) = delete;

  /// False when the path could not be opened (no lines will be written).
  bool ok() const { return file_ != nullptr; }

  void on_run_started(const RunInfo& info) override;
  void on_exchange(const CellEpochRecord& record) override;
  void on_epoch_completed(const EpochRecord& record) override;
  void on_metrics(const MetricSnapshot& snapshot) override;
  void on_run_completed(const RunSummary& summary) override;
  void on_serve_request(const ServeRequestRecord& record) override;
  void on_serve_batch(const ServeBatchRecord& record) override;
  void on_data_store(const DataStoreRecord& record) override;

 private:
  void write_line(const std::string& line);

  std::FILE* file_ = nullptr;
};

/// Periodic checkpointing as an observer — subsumes inline save-at-the-end
/// cadences: every `every` epochs whose records carry genomes, the grid
/// snapshot is written (atomically) to `path`, newest wins, so an
/// interrupted run resumes from the last completed cadence epoch on any
/// backend — including the distributed ones, where no in-process trainer
/// exists to snapshot.
class CheckpointPolicyObserver final : public TrainObserver {
 public:
  CheckpointPolicyObserver(std::string path, std::uint32_t every,
                           TrainingConfig config);

  void on_epoch_completed(const EpochRecord& record) override;

  std::uint32_t checkpoints_written() const { return written_; }

 private:
  std::string path_;
  std::uint32_t every_;
  TrainingConfig config_;
  std::uint32_t written_ = 0;
};

}  // namespace cellgan::core
