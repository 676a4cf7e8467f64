// core::Session — one runtime facade over the three execution backends.
//
// A Session takes a RunSpec, resolves its training set (synthetic stand-in,
// or real MNIST IDX files: mapped in place at full resolution, downsampled
// row by row to a smaller architecture),
// calibrates the virtual-time cost model when the spec asks for one, runs
// the spec's backend, and returns one unified RunResult that subsumes both
// TrainOutcome (the in-process trainers) and DistributedOutcome (the
// master/slave system). Examples, benchmarks and CI all go through this seam.
//
// The facade is a pure wrapper: Backend::kSequential is bit-identical to a
// one-lane SingleCore ParallelTrainer, kThreads to a `threads`-lane one, and
// kDistributed to run_distributed (the backend-parity suite pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/distributed_trainer.hpp"
#include "core/master.hpp"
#include "core/observer.hpp"
#include "core/run_spec.hpp"
#include "core/trainer_core.hpp"
#include "data/dataset.hpp"
#include "datastore/sample_store.hpp"

namespace cellgan::core {

class ParallelTrainer;

/// Unified result of a Session run, whichever backend executed it.
struct RunResult {
  Backend backend = Backend::kSequential;
  double wall_s = 0.0;
  double virtual_s = 0.0;  ///< serial sum / max-over-lanes / master makespan
  double train_flops = 0.0;            ///< in-process backends only (0 otherwise)
  common::Profiler profiler;           ///< per-routine totals (all ranks/lanes)
  std::vector<double> g_fitnesses;     ///< final per-cell generator losses
  std::vector<double> d_fitnesses;
  int best_cell = 0;                   ///< argmin generator fitness

  /// Final metric snapshot (IS / FID / mode coverage), harvested from the
  /// subscribed metric evaluator when one ran; nullopt otherwise.
  std::optional<MetricSnapshot> metrics;

  // Distributed detail (empty for the in-process backends).
  std::vector<protocol::SlaveResult> cell_results;  ///< indexed by cell id
  std::vector<minimpi::Runtime::RankResult> ranks;  ///< 0 = master, 1.. = slaves
  std::vector<std::string> node_names;
  std::uint64_t heartbeat_cycles = 0;

  bool distributed() const { return !ranks.empty(); }

  /// Average of a routine's simulated minutes across slaves (the per-slave
  /// view the paper's Table IV distributed column reports). 0 in-process.
  double slave_routine_virtual_min(const std::string& routine) const;
};

/// Serialize spec + result as JSON (the CI bench artifact format). Carries
/// `"schema_version"` (core::kRunJsonSchemaVersion, shared with the JSONL
/// telemetry stream) so downstream tooling can detect format changes.
std::string to_json(const RunSpec& spec, const RunResult& result);
bool write_result_json(const std::string& path, const RunSpec& spec,
                       const RunResult& result);

class Session {
 public:
  explicit Session(RunSpec spec);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const RunSpec& spec() const { return spec_; }

  /// Resolve the dataset and cost model. Returns false — with a descriptive
  /// error() — when the dataset cannot be loaded (e.g. missing IDX files).
  /// Idempotent; run() calls it implicitly. The trainer grid is built
  /// lazily by trainer() or run(), so callers that only need the resolved
  /// dataset pay nothing for it.
  bool prepare();
  const std::string& error() const { return error_; }

  /// Override the calibrated cost model (benchmarks with custom profiles).
  /// Call before prepare().
  void set_cost_model(CostModel model);
  /// Use already-resolved datasets instead of resolving spec.dataset — sweep
  /// benchmarks share one resolved training store (and its mapping) across
  /// many sessions instead of reloading/regenerating it per point. Floats the
  /// store borrows, and `test`, must outlive the session. Call before
  /// prepare().
  void set_datasets(datastore::SampleStore train, const data::Dataset& test);
  /// Master options for the distributed backend (heartbeat tuning).
  void set_master_options(Master::Options options);

  /// The run's event bus. Subscribe external TrainObservers (e.g.
  /// metrics::EvaluatorObserver) before run(); they must outlive it. The
  /// built-in sinks the spec's ObserverSpec asks for (JSONL telemetry,
  /// checkpoint policy) are attached by run() itself.
  EventBus& observers() { return observers_; }

  /// False only for a non-rank-0 process of a distributed-tcp world (read
  /// from the CELLGAN_* environment): the stream is republished at rank 0,
  /// so that's where observers — and their setup cost — belong. Programs
  /// attaching their own observers (metric evaluators) should gate on this.
  static bool hosts_observer_stream(const RunSpec& spec);

  /// Execute the run. CG_EXPECTs that prepare() succeeded (call it first to
  /// handle failures gracefully); throws std::runtime_error carrying error()
  /// when distributed-tcp finds no CELLGAN_* world in the environment.
  /// Writes spec.result_json when set.
  RunResult run();

  /// Resolved datasets; valid after a successful prepare(). The training set
  /// is a store: a full-resolution IDX run's is the mapped file, every other
  /// run's borrows floats. The test split is made or loaded (and downsampled)
  /// on the first test_set() call, since only evaluators read it; an
  /// unreadable test pair throws std::runtime_error there (prepare() already
  /// checked that it exists).
  const datastore::SampleStore& train_set() const;
  const data::Dataset& test_set();

  /// The resolved cost model; valid after a successful prepare(). Lets a
  /// benchmark calibrate once and share the model across sessions via
  /// set_cost_model.
  const CostModel& cost_model() const;

  /// The live in-process trainer, built on the first call: one SingleCore
  /// lane for sequential, `spec.threads` MultiThread lanes for threads.
  /// nullptr for the distributed backends, or when prepare() fails.
  ParallelTrainer* trainer();

  /// Checkpoint/restore, forwarded to the in-process trainer (returns
  /// false / CG_EXPECTs on the distributed backend).
  Checkpoint checkpoint();
  bool restore(const Checkpoint& snapshot);

  /// Sample `count` images from the best cell's neighborhood mixture — the
  /// generative model the paper's system returns. Snapshots the trained grid
  /// into a Checkpoint and samples through core::CheckpointMixture on a
  /// fresh Rng(seed) stream — the exact function a serving process
  /// (`cellgan_serve`) evaluates when it restores the same checkpoint, so
  /// serve responses are verifiable bit-for-bit against this call (per
  /// tensor-kernel kind). Works on every backend that yields cell results or
  /// a live trainer, and leaves the live trainer's RNG streams untouched.
  tensor::Tensor sample_best(const RunResult& result, std::size_t count,
                             std::uint64_t seed);

  /// The grid snapshot sample_best(result, count, seed) samples from: the
  /// live trainer's checkpoint in-process, the master's collected results
  /// reassembled via checkpoint_from_results when distributed.
  Checkpoint result_checkpoint(const RunResult& result);

 private:
  /// Attach the spec-requested built-in observers (idempotent). Throws when
  /// the telemetry path cannot be opened.
  void attach_builtin_observers();

  RunSpec spec_;
  Master::Options master_options_;
  std::optional<CostModel> cost_override_;
  EventBus observers_;
  std::unique_ptr<JsonlTelemetrySink> telemetry_sink_;
  std::unique_ptr<CheckpointPolicyObserver> checkpoint_observer_;
  bool builtins_attached_ = false;

  bool prepared_ = false;
  std::string error_;
  /// Floats train_set_ borrows when this session made them (a synthetic set,
  /// or IDX images downsampled for a smaller architecture).
  data::Dataset train_floats_;
  std::optional<datastore::SampleStore> train_set_;  ///< set_datasets() or prepare()
  std::optional<data::Dataset> test_set_;  ///< resolved by test_set()
  const data::Dataset* external_test_ = nullptr;
  CostModel cost_model_;
  std::unique_ptr<ParallelTrainer> trainer_;
};

}  // namespace cellgan::core
