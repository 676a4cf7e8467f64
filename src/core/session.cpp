#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include "common/expect.hpp"
#include "common/log.hpp"
#include "core/checkpoint_sampler.hpp"
#include "core/parallel_trainer.hpp"
#include "core/workload.hpp"
#include "datastore/errors.hpp"
#include "minimpi/bootstrap.hpp"
#include "tensor/kernels.hpp"

namespace cellgan::core {

// --- RunResult --------------------------------------------------------------

double RunResult::slave_routine_virtual_min(const std::string& routine) const {
  if (ranks.size() <= 1) return 0.0;
  double total = 0.0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    total += ranks[r].profiler.cost(routine).virtual_s;
  }
  return total / static_cast<double>(ranks.size() - 1) / 60.0;
}

std::string to_json(const RunSpec& spec, const RunResult& result) {
  std::string out = "{\n  \"schema_version\": " +
                    std::to_string(kRunJsonSchemaVersion) + ",\n  \"spec\": ";
  // RunSpec::to_text() is already JSON; trim its trailing newline to nest it.
  std::string spec_text = spec.to_text();
  while (!spec_text.empty() && spec_text.back() == '\n') spec_text.pop_back();
  out += spec_text;
  out += ",\n  \"result\": {\n";
  char line[256];
  std::snprintf(line, sizeof(line), "    \"backend\": \"%s\",\n",
                to_string(result.backend));
  out += line;
  std::snprintf(line, sizeof(line),
                "    \"wall_s\": %.6f,\n    \"virtual_s\": %.6f,\n"
                "    \"virtual_min\": %.6f,\n    \"train_flops\": %.0f,\n"
                "    \"best_cell\": %d,\n",
                result.wall_s, result.virtual_s, result.virtual_s / 60.0,
                result.train_flops, result.best_cell);
  out += line;
  const auto fitness_array = [&](const char* name,
                                 const std::vector<double>& values) {
    out += "    \"";
    out += name;
    out += "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(line, sizeof(line), "%s%.9g", i == 0 ? "" : ", ", values[i]);
      out += line;
    }
    out += "],\n";
  };
  fitness_array("g_fitnesses", result.g_fitnesses);
  fitness_array("d_fitnesses", result.d_fitnesses);
  out += "    \"routines\": {";
  const auto names = result.profiler.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto cost = result.profiler.cost(names[i]);
    std::snprintf(line, sizeof(line),
                  "%s\n      \"%s\": {\"wall_s\": %.6f, \"virtual_s\": %.6f,"
                  " \"calls\": %llu}",
                  i == 0 ? "" : ",", names[i].c_str(), cost.wall_s, cost.virtual_s,
                  static_cast<unsigned long long>(cost.calls));
    out += line;
  }
  out += names.empty() ? "},\n" : "\n    },\n";
  if (result.metrics.has_value()) {
    const MetricSnapshot& m = *result.metrics;
    std::snprintf(line, sizeof(line),
                  "    \"metrics\": {\"epoch\": %u, \"best_cell\": %d, "
                  "\"mixture_is\": %.9g, \"fid\": %.9g, \"modes_covered\": %zu, "
                  "\"tvd_from_uniform\": %.9g, \"cell_is\": [",
                  m.epoch, m.best_cell, m.mixture_is, m.fid, m.modes_covered,
                  m.tvd_from_uniform);
    out += line;
    for (std::size_t i = 0; i < m.cell_is.size(); ++i) {
      std::snprintf(line, sizeof(line), "%s%.9g", i == 0 ? "" : ", ",
                    m.cell_is[i]);
      out += line;
    }
    out += "]},\n";
  }
  std::snprintf(line, sizeof(line),
                "    \"ranks\": %zu,\n    \"heartbeat_cycles\": %llu\n  }\n}\n",
                result.ranks.size(),
                static_cast<unsigned long long>(result.heartbeat_cycles));
  out += line;
  return out;
}

bool write_result_json(const std::string& path, const RunSpec& spec,
                       const RunResult& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = to_json(spec, result);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

namespace {

/// One DistributedOutcome -> RunResult mapping for both distributed
/// backends, keeping their JSON artifacts field-for-field comparable (the
/// cellgan_launch --verify-parity contract).
RunResult distributed_run_result(Backend kind, DistributedOutcome outcome) {
  RunResult result;
  result.backend = kind;
  result.wall_s = outcome.wall_s;
  result.virtual_s = outcome.virtual_makespan_s;
  result.best_cell = outcome.master.best_cell;
  result.g_fitnesses.reserve(outcome.master.results.size());
  result.d_fitnesses.reserve(outcome.master.results.size());
  for (const auto& cell : outcome.master.results) {
    result.g_fitnesses.push_back(cell.center.g_fitness);
    result.d_fitnesses.push_back(cell.center.d_fitness);
  }
  for (const auto& rank : outcome.ranks) result.profiler.merge(rank.profiler);
  result.cell_results = std::move(outcome.master.results);
  result.ranks = std::move(outcome.ranks);
  result.node_names = std::move(outcome.master.node_names);
  result.heartbeat_cycles = outcome.master.heartbeat_cycles;
  return result;
}

/// A training step allocates and frees tensors of 0.1 to 1 MB. glibc's
/// dynamic thresholds stay near that size unless the process frees a larger
/// block, and then every step gives heap memory back to the kernel and faults
/// it in again. Pin them where the dynamic rule ends after a 32 MB free.
void keep_step_memory_in_the_heap() {
#if defined(M_MMAP_THRESHOLD) && defined(M_TRIM_THRESHOLD)
  static const bool pinned = [] {
    return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
           mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1;
  }();
  (void)pinned;
#endif
}

/// Side of the square images an IDX-fed architecture of `config` reads.
std::size_t idx_side(const TrainingConfig& config) {
  return static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(config.arch.image_dim))));
}

/// True in the rank-0 process of a TCP world, which hosts the master: it
/// never trains, so it reads no training rows.
bool tcp_master_process(const RunSpec& spec) {
  if (spec.backend != Backend::kDistributedTcp) return false;
  std::string env_error;
  const auto world = tcp_world_from_env(&env_error);
  return world.has_value() && world->rank == 0;
}

/// The training split of a file store as floats of `side` x `side`, staged
/// one read's worth of rows at a time: no full-size float copy of the split
/// exists at any point.
data::Dataset downsampled_rows(const datastore::SampleStore& file, std::size_t side) {
  constexpr std::size_t kDownsampleRows = datastore::SampleStore::kRowsPerRead;
  data::Dataset out;
  out.images = tensor::Tensor(file.samples(), side * side);
  out.labels.assign(file.labels().begin(), file.labels().end());
  const std::size_t dim = file.sample_dim();
  std::vector<float> chunk(kDownsampleRows * dim);
  for (std::size_t first = 0; first < file.samples(); first += kDownsampleRows) {
    const std::size_t rows = std::min(kDownsampleRows, file.samples() - first);
    file.stage_rows(first, rows, chunk.data());
    for (std::size_t i = 0; i < rows; ++i) {
      data::downsample_image(std::span<const float>(chunk).subspan(i * dim, dim),
                             data::kImageSide, out.images.row_span(first + i), side);
    }
  }
  return out;
}

}  // namespace

// --- Session ----------------------------------------------------------------

Session::Session(RunSpec spec) : spec_(std::move(spec)) {}

Session::~Session() = default;

void Session::set_cost_model(CostModel model) {
  CG_EXPECT(!prepared_);
  cost_override_ = std::move(model);
}

void Session::set_master_options(Master::Options options) {
  CG_EXPECT(!prepared_);
  master_options_ = options;
}

void Session::set_datasets(datastore::SampleStore train, const data::Dataset& test) {
  CG_EXPECT(!prepared_);
  train_set_ = std::move(train);
  external_test_ = &test;
}

bool Session::prepare() {
  if (prepared_) return true;
  if (!error_.empty()) return false;

  keep_step_memory_in_the_heap();

  // Pin the tensor microkernel kind before anything computes (the cost-model
  // calibration probe below runs real kernels). The selection is
  // process-wide — the kernels are a global seam.
  tensor::set_kernel_kind(spec_.tensor_kernel);

  // 0. Derive the genome-record cadences the spec's observers need: records
  // carry genomes on epochs matching either config divisor, so each
  // requested cadence gets its own slot when one is free — no gcd
  // degradation for coprime cadences. Only when a third distinct cadence is
  // requested (user-pinned genome_record_every plus two observer cadences)
  // does gcd merge into slot a. Broadcast with the config for the slaves.
  {
    const auto claim_slot = [this](std::uint32_t every) {
      if (every == 0) return;
      std::uint32_t& a = spec_.config.genome_record_every;
      std::uint32_t& b = spec_.config.genome_record_every_b;
      if (a == every || b == every) return;
      if (a == 0) a = every;
      else if (b == 0) b = every;
      else a = std::gcd(a, every);
    };
    if (!spec_.observers.checkpoint_path.empty()) {
      claim_slot(spec_.observers.checkpoint_every);
    }
    claim_slot(spec_.observers.eval_every);
  }

  // 1. Resolve the training set (unless the caller supplied resolved ones).
  // The test split waits for its first reader (test_set()).
  const auto& config = spec_.config;
  const bool calibrates =
      !cost_override_.has_value() && spec_.cost_profile != CostProfileKind::kNone;
  std::size_t rows = 0;  // what the one-batch check below counts
  if (train_set_.has_value()) {
    rows = train_set_->samples();
  } else if (spec_.dataset.kind == DatasetSpec::Kind::kSynthetic) {
    train_floats_ = make_matched_dataset(config, spec_.dataset.samples,
                                         spec_.dataset.seed);
    train_set_.emplace(train_floats_);
    rows = train_set_->samples();
  } else {
    if (config.arch.image_dim > data::kImageDim) {
      error_ = "IDX MNIST provides " + std::to_string(data::kImageDim) +
               "-pixel images but the architecture wants " +
               std::to_string(config.arch.image_dim) +
               "; use a synthetic dataset for larger resolutions";
      return false;
    }
    const std::size_t side = idx_side(config);
    if (side * side != config.arch.image_dim) {
      error_ = "architecture image_dim " + std::to_string(config.arch.image_dim) +
               " is not square; cannot downsample IDX images to it";
      return false;
    }
    if (!data::mnist_idx_present(spec_.dataset.idx_dir, &error_)) return false;
    try {
      auto file = datastore::SampleStore::open_idx(
          spec_.dataset.idx_dir + "/train-images-idx3-ubyte",
          spec_.dataset.idx_dir + "/train-labels-idx1-ubyte");
      rows = file.samples();
      if (side == data::kImageSide) {
        train_set_ = std::move(file);
      } else if (tcp_master_process(spec_) && !calibrates) {
        // Rank 0 of a TCP world validated and counted the pair like every
        // rank; its master never trains, so it keeps no rows (the cost
        // calibration below is the one reader it would build floats for).
        train_set_.emplace(train_floats_);
      } else {
        // The descriptor closes when `file` goes; the run keeps the small
        // floats.
        train_floats_ = downsampled_rows(file, side);
        train_set_.emplace(train_floats_);
      }
    } catch (const datastore::DataStoreError& e) {
      error_ = e.what();
      return false;
    }
  }
  if (rows < config.batch_size) {
    error_ = "the training set has " + std::to_string(rows) +
             " samples, fewer than one batch (batch_size " +
             std::to_string(config.batch_size) + ")";
    return false;
  }

  // 2. Resolve the cost model: explicit override, else the spec's profile
  // calibrated against this exact configuration (targets normalized to the
  // run's iteration count, as the scaling benchmarks do).
  if (cost_override_.has_value()) {
    cost_model_ = *cost_override_;
  } else if (!calibrates) {
    cost_model_ = CostModel{};
  } else {
    const WorkloadProbe probe = TrainerCore::measure_workload(config, *train_set_);
    CostProfile profile = spec_.cost_profile == CostProfileKind::kTable3
                              ? CostProfile::table3()
                              : CostProfile::table4();
    profile.reference_iterations = static_cast<double>(config.iterations);
    cost_model_ = CostModel::calibrated(profile, probe);
  }

  prepared_ = true;
  return true;
}

bool Session::hosts_observer_stream(const RunSpec& spec) {
  // In a multi-process world the whole stream is republished at rank 0;
  // other ranks publish nothing, so observers (and their setup cost) belong
  // at rank 0 only — every rank attaching a sink to the same paths would
  // interleave duplicate run_started/run_completed lines.
  if (spec.backend != Backend::kDistributedTcp) return true;
  std::string env_error;
  const auto world = tcp_world_from_env(&env_error);
  return !world.has_value() || world->rank == 0;
}

void Session::attach_builtin_observers() {
  if (builtins_attached_) return;
  if (!hosts_observer_stream(spec_)) {
    builtins_attached_ = true;
    return;
  }
  if (!spec_.observers.telemetry.empty() && telemetry_sink_ == nullptr) {
    telemetry_sink_ =
        std::make_unique<JsonlTelemetrySink>(spec_.observers.telemetry);
    if (!telemetry_sink_->ok()) {
      telemetry_sink_.reset();
      // Not latched: a retry after the caller fixes the path attaches both
      // built-ins instead of silently running unobserved.
      throw std::runtime_error("telemetry: cannot open '" +
                               spec_.observers.telemetry + "'");
    }
    observers_.subscribe(telemetry_sink_.get());
  }
  if (spec_.observers.checkpoint_every > 0 &&
      !spec_.observers.checkpoint_path.empty()) {
    checkpoint_observer_ = std::make_unique<CheckpointPolicyObserver>(
        spec_.observers.checkpoint_path, spec_.observers.checkpoint_every,
        spec_.config);
    observers_.subscribe(checkpoint_observer_.get());
  }
  builtins_attached_ = true;
}

RunResult Session::run() {
  if (!prepare()) {
    std::fprintf(stderr, "[session] %s\n", error_.c_str());
    CG_EXPECT(prepared_);  // contract: call prepare() first to handle failures
  }
  attach_builtin_observers();
  Master::Options options = master_options_;
  options.observers = &observers_;  // only rank 0 hosts a Master and publishes
  std::optional<TcpWorld> world;
  if (spec_.backend == Backend::kDistributedTcp) {
    // This process hosts one rank of a multi-process world described by the
    // CELLGAN_* environment (exported by cellgan_launch).
    std::string env_error;
    world = tcp_world_from_env(&env_error);
    if (!world) {
      error_ = "distributed-tcp: " + env_error +
               " (start this rank through cellgan_launch, or export " +
               minimpi::kEnvRank + "/" + minimpi::kEnvWorld + "/" +
               minimpi::kEnvEndpoint + ")";
      throw std::runtime_error(error_);
    }
    // Over real processes a dead slave otherwise hangs the master forever
    // (its clean socket close is indistinguishable from early completion):
    // arm the liveness-gated timeout by default so the worst case is a named
    // TimeoutError. Heartbeat replies keep an honest long run alive past the
    // deadline; callers can still pin their own via set_master_options.
    if (options.slave_timeout_s <= 0.0) options.slave_timeout_s = 600.0;
  }
  ParallelTrainer* live = trainer();
  observers_.run_started(RunInfo{to_string(spec_.backend), spec_.config});
  RunResult result;
  if (live != nullptr) {
    TrainOutcome outcome = live->run();
    result.backend = spec_.backend;
    result.wall_s = outcome.wall_s;
    result.virtual_s = outcome.virtual_s;
    result.train_flops = outcome.train_flops;
    result.profiler = std::move(outcome.profiler);
    result.g_fitnesses = std::move(outcome.g_fitnesses);
    result.d_fitnesses = std::move(outcome.d_fitnesses);
    result.best_cell = outcome.best_cell;
  } else if (world) {
    // Recovery and chaos knobs ride the same environment channel as the
    // world description: cellgan_launch exports CELLGAN_RECOVER_DIR (and the
    // kill hook into the doomed rank only); hand-started ranks can export
    // them too. Disabled when the variables are absent.
    result = distributed_run_result(
        Backend::kDistributedTcp,
        run_distributed_tcp(*world, spec_.config, train_set(), cost_model_, options,
                            recovery_options_from_env()));
  } else {
    result = distributed_run_result(
        Backend::kDistributed,
        run_distributed(spec_.config, train_set(), cost_model_, options));
  }
  // A run that trained from the IDX file reports the file.
  if (train_set_->file_backed()) {
    observers_.data_store(DataStoreRecord{train_set_->file_bytes()});
  }
  // Harvest the final metric snapshot from whichever evaluator subscribed.
  for (TrainObserver* observer : observers_.observers()) {
    if (auto snapshot = observer->final_metrics()) {
      result.metrics = std::move(snapshot);
      break;
    }
  }
  if (spec_.observers.eval_every > 0 && !result.metrics.has_value() &&
      !result.g_fitnesses.empty()) {
    common::log_warn()
        << "--eval-every " << spec_.observers.eval_every
        << " produced no metric snapshot: either no evaluator observer was "
           "subscribed (cellgan_run, mnist_cellular and table2_metrics attach "
           "metrics::EvaluatorObserver) or no epoch matched the cadence ("
        << spec_.config.iterations << " iterations)";
  }
  RunSummary summary;
  summary.backend = to_string(spec_.backend);
  summary.wall_s = result.wall_s;
  summary.virtual_s = result.virtual_s;
  summary.train_flops = result.train_flops;
  summary.g_fitnesses = result.g_fitnesses;
  summary.d_fitnesses = result.d_fitnesses;
  summary.best_cell = result.best_cell;
  observers_.run_completed(summary);
  if (!spec_.result_json.empty()) {
    write_result_json(spec_.result_json, spec_, result);
  }
  return result;
}

const datastore::SampleStore& Session::train_set() const {
  CG_EXPECT(prepared_);
  return *train_set_;
}

const data::Dataset& Session::test_set() {
  CG_EXPECT(prepared_);
  if (external_test_ != nullptr) return *external_test_;
  if (test_set_.has_value()) return *test_set_;
  const auto& config = spec_.config;
  if (spec_.dataset.kind == DatasetSpec::Kind::kSynthetic) {
    test_set_ = make_matched_dataset(
        config, std::max<std::size_t>(1, spec_.dataset.samples / 6), spec_.dataset.seed + 1);
    return *test_set_;
  }
  std::string error;
  auto loaded = data::load_mnist_split(spec_.dataset.idx_dir, data::MnistSplit::kTest, &error);
  if (!loaded) throw std::runtime_error(error);
  test_set_ = config.arch.image_dim == data::kImageDim
                  ? std::move(*loaded)
                  : data::downsampled(*loaded, idx_side(config));
  return *test_set_;
}

const CostModel& Session::cost_model() const {
  CG_EXPECT(prepared_);
  return cost_model_;
}

ParallelTrainer* Session::trainer() {
  const bool sequential = spec_.backend == Backend::kSequential;
  if (trainer_ == nullptr && (sequential || spec_.backend == Backend::kThreads) &&
      prepare()) {
    trainer_ = std::make_unique<ParallelTrainer>(
        spec_.config, train_set(), sequential ? 1 : spec_.threads, cost_model_,
        sequential ? ExecMode::SingleCore : ExecMode::MultiThread);
    trainer_->set_observers(&observers_);
  }
  return trainer_.get();
}

Checkpoint Session::checkpoint() {
  ParallelTrainer* live = trainer();
  CG_EXPECT(live != nullptr);
  return live->checkpoint();
}

bool Session::restore(const Checkpoint& snapshot) {
  ParallelTrainer* live = trainer();
  if (live == nullptr) return false;
  live->restore(snapshot);
  return true;
}

Checkpoint Session::result_checkpoint(const RunResult& result) {
  CG_EXPECT(prepared_);
  if (!result.distributed()) return checkpoint();
  return checkpoint_from_results(spec_.config, result.cell_results);
}

tensor::Tensor Session::sample_best(const RunResult& result, std::size_t count,
                                    std::uint64_t seed) {
  CheckpointMixture model(result_checkpoint(result), result.best_cell);
  return model.sample(count, seed);
}

}  // namespace cellgan::core
