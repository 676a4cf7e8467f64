// RunSpec — the one description of a training run, whatever executes it.
//
// The paper presents a single cellular-training algorithm with three
// execution vehicles (single core, p cores, distributed master/slave —
// Tables III/IV). RunSpec captures everything a run needs — the
// TrainingConfig, which Backend executes it, the dataset to resolve
// (synthetic stand-in or real MNIST IDX files on disk), the virtual-time
// cost-model calibration, and output options — so examples, benchmarks and
// CI all describe runs the same way and core::Session (core/session.hpp)
// can execute them behind one API.
//
// A RunSpec is buildable from command-line flags (add_flags/from_cli over
// common::CliParser) and round-trips through a JSON text form
// (to_text/from_text), so any run can be saved next to its results and
// replayed exactly (`cellgan_run --spec run.json`). Both forms go through one
// table of settings in run_spec.cpp, so a flag and its spec-file key accept
// and reject the same values, with an error that names the flag or key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/cli.hpp"
#include "core/config.hpp"
#include "tensor/kernels.hpp"

namespace cellgan::core {

/// Which execution vehicle runs the grid (Table III's three columns, plus
/// the multi-process deployment of the same master/slave system).
enum class Backend : std::uint32_t {
  kSequential = 0,   ///< one process, cells stepped one at a time
  kThreads = 1,      ///< one process, cells stepped on ThreadPool lanes
  kDistributed = 2,  ///< minimpi master + one slave rank per cell (threads)
  /// One OS process per rank, frames over TCP sockets; this process runs the
  /// single rank named by the CELLGAN_RANK/CELLGAN_WORLD/CELLGAN_ENDPOINT
  /// environment (exported by `cellgan_launch`). Per-rank outcomes are
  /// bit-identical to kDistributed on the same seed.
  kDistributedTcp = 3,
};

/// The vehicles a single process can run self-contained (kDistributedTcp is
/// excluded: it needs a multi-process world around it).
inline constexpr Backend kAllBackends[] = {Backend::kSequential, Backend::kThreads,
                                           Backend::kDistributed};

const char* to_string(Backend backend);
std::optional<Backend> backend_from_string(std::string_view name);

/// Which CostProfile calibrates the virtual clocks (empty model = pure
/// wall-clock runs; table3/table4 reproduce the paper's two — mutually
/// inconsistent — calibration targets, see core/cost_model.hpp).
enum class CostProfileKind : std::uint32_t { kNone = 0, kTable3 = 1, kTable4 = 2 };

const char* to_string(CostProfileKind kind);
std::optional<CostProfileKind> cost_profile_from_string(std::string_view name);

std::optional<LossMode> loss_mode_from_string(std::string_view name);
std::optional<ExchangeMode> exchange_mode_from_string(std::string_view name);

/// Check the exchange policy/transport combination: ltfb and gap need
/// non-neighbor genomes, which the async-neighbors transport never carries.
/// On failure fills `error` with a named diagnostic. Called by from_cli,
/// from_text and Session::prepare (a spec built in code passes neither).
bool validate_exchange(const TrainingConfig& config, std::string* error);

/// The settings table's count parser, for programs with flags of their own
/// (cellgan_launch): `text` must be digits only, at least `min` and at most
/// `max`. Returns "" and sets `out`, or a diagnostic naming `name`.
std::string parse_count(const std::string& text, const std::string& name,
                        std::uint64_t min, std::uint64_t max, std::uint64_t& out);

/// Where the training data comes from. Text grammar (the `--dataset` flag):
///   synthetic              procedural stand-in, keeping the program's
///                          default sample count/seed
///   synthetic:N            N training samples
///   synthetic:N@SEED       N samples drawn with SEED
///   idx:DIR                real MNIST IDX files under DIR (hard error when
///                          missing — no silent fallback)
struct DatasetSpec {
  enum class Kind : std::uint32_t { kSynthetic = 0, kIdx = 1 };

  Kind kind = Kind::kSynthetic;
  std::string idx_dir;         ///< kIdx only
  std::size_t samples = 600;   ///< kSynthetic: training samples (test = /6)
  std::uint64_t seed = 7;      ///< kSynthetic: generator seed

  static std::optional<DatasetSpec> parse(const std::string& text,
                                          std::string* error = nullptr);
  /// Parse on top of `base`: a bare `synthetic` keeps the base's sample
  /// count/seed (the program's defaults) instead of resetting them.
  static std::optional<DatasetSpec> parse(const std::string& text,
                                          const DatasetSpec& base,
                                          std::string* error);
  std::string to_text() const;

  friend bool operator==(const DatasetSpec&, const DatasetSpec&) = default;
};

/// Observer configuration of a run (core/observer.hpp): which built-in
/// observers the Session attaches and the cadence knobs shared with external
/// evaluators (metrics::EvaluatorObserver). Any non-zero cadence makes the
/// trainers embed genome payloads in the matching epoch records
/// (TrainingConfig::genome_record_every, derived by Session::prepare).
struct ObserverSpec {
  /// Metric-evaluation cadence in epochs (the `--eval-every` flag); 0 = off.
  /// The Session only derives the record cadence from it — programs attach
  /// the evaluator itself (cellgan_run, table2_metrics).
  std::uint32_t eval_every = 0;
  std::size_t eval_samples = 256;  ///< samples per generator / mixture eval
  /// JSONL telemetry event-stream path (`--telemetry`); empty = off.
  std::string telemetry;
  /// Rolling-checkpoint cadence + file (`--checkpoint-every/-path`); a
  /// CheckpointPolicyObserver is attached when both are set.
  std::uint32_t checkpoint_every = 0;
  std::string checkpoint_path;

  friend bool operator==(const ObserverSpec&, const ObserverSpec&) = default;
};

struct RunSpec {
  TrainingConfig config;
  Backend backend = Backend::kSequential;
  std::size_t threads = 2;  ///< worker lanes for Backend::kThreads
  DatasetSpec dataset;
  CostProfileKind cost_profile = CostProfileKind::kNone;
  /// Tensor microkernel the run executes on (`--tensor-kernel`: scalar |
  /// simd; the seam in tensor/kernels.hpp), pinned process-wide when the
  /// Session prepares. scalar is the bit-exact seed-identical reference; simd
  /// is the packed vectorized path (deterministic per kind, may differ from
  /// scalar in low-order GEMM bits).
  tensor::KernelKind tensor_kernel = tensor::KernelKind::kSimd;
  ObserverSpec observers;
  /// When non-empty, Session::run() writes the unified RunResult as JSON here.
  std::string result_json;

  /// Register the shared flags on `cli`, with defaults taken from
  /// `defaults` so each program's --help shows its own baseline. Programs
  /// may register extra flags of their own before parse().
  static void add_flags(common::CliParser& cli, const RunSpec& defaults);

  /// Build a spec from parsed flags: start from `defaults` (or from the file
  /// named by an explicit --spec), then apply exactly the flags the user
  /// passed. Returns nullopt (after printing a diagnostic) on a malformed or
  /// out-of-range value. Must be given the same `defaults` as add_flags.
  static std::optional<RunSpec> from_cli(const common::CliParser& cli,
                                         const RunSpec& defaults);

  /// Convenience for programs with no extra flags: parser + add_flags +
  /// parse + from_cli in one call. Returns nullopt on --help or bad flags.
  static std::optional<RunSpec> from_args(int argc, const char* const* argv,
                                          const std::string& description,
                                          const RunSpec& defaults);

  /// JSON text form; round-trips exactly (doubles printed with %.17g).
  /// from_text checks the same bounds as the flags; its error names the key.
  std::string to_text() const;
  static std::optional<RunSpec> from_text(const std::string& text,
                                          std::string* error = nullptr);

  /// Load/save the JSON text form from/to a file.
  static std::optional<RunSpec> load(const std::string& path,
                                     std::string* error = nullptr);
  bool save(const std::string& path) const;

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

}  // namespace cellgan::core
