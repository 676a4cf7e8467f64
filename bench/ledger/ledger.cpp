// ledger — the wall-clock ledger of cellular GAN training.
//
// One invocation measures one workload (see kWorkloads) in this process:
// untraced reps until --seconds is spent, and with --trace 1 a few more reps
// with epoch spans plus the per-layer probe phase. It prints every metric by
// name and unit, writes <out>/<workload>.json (and, when tracing, appends its
// spans to a Chrome trace-event file), and ends its standard output with one
// JSON line:
//
//   {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// `ledger --make-fixture DIR` writes the MNIST-shaped IDX quartet the
// workloads train on. bench/ledger/run.sh builds this program, makes the
// fixture for a seed and calls it once per workload; README.md documents the
// workloads, every metric and the noise study behind best-of-N.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/gan_trainer.hpp"
#include "core/session.hpp"
#include "core/trainer_core.hpp"
#include "data/dataset.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/batch_feed.hpp"
#include "evolve/genome.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/tcp_transport.hpp"
#include "nn/gan_models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

extern char** environ;

// ---------------------------------------------------------------------------
// Heap accounting: a replacement global operator new counts every allocation
// of this process, so probes can report allocations and bytes per call.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t bytes, std::size_t alignment) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t size = bytes == 0 ? 1 : bytes;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace cellgan;

// ---------------------------------------------------------------------------
// Small helpers: statistics, JSON text, files.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// A JSON number with every digit, or null when not finite.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", v);
  return text;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

/// Ordered JSON object of already-rendered values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, const std::string& s) {
    return raw(key, json_string(s));
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// The number after the first `"key": ` at or past `from`; nullopt if absent.
std::optional<double> json_number(const std::string& json, const std::string& key,
                                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = json.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// The raw `[...]` text of the first array named `key`; empty if absent.
std::string json_array(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\": [");
  if (at == std::string::npos) return "";
  const auto open = json.find('[', at);
  const auto close = json.find(']', open);
  return close == std::string::npos ? "" : json.substr(open, close - open + 1);
}

std::vector<double> parse_numbers(const std::string& array) {
  std::vector<double> values;
  const char* p = array.c_str() + (array.empty() ? 0 : 1);
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    values.push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return values;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  double now_us() const { return clock_.elapsed_s() * 1e6; }

  /// Record a finished span; returns its id (-1 when disabled).
  int add(std::string name, int parent, double start_us, double end_us) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), parent, start_us, end_us});
    return static_cast<int>(spans_.size()) - 1;
  }
  int begin(std::string name, int parent) {
    return add(std::move(name), parent, now_us(), now_us());
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  /// Append the spans to the Chrome trace-event file at `path` (created when
  /// absent) as complete ("X") events of process `pid`, so one file holds
  /// every workload of a run, each on its own track. `args` carries id and
  /// parent so the causal tree survives even where spans do not nest in time.
  bool append_to(const std::string& path, int pid, const std::string& process) const {
    static const std::string kTail = "\n]}\n";
    std::string out = read_file(path);
    if (out.ends_with(kTail)) {
      out.resize(out.size() - kTail.size());
      out += ",\n";
    } else {
      out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    }
    out += JsonObject()
               .add("name", std::string("process_name"))
               .add("ph", std::string("M"))
               .add("pid", pid)
               .raw("args", JsonObject().add("name", process).str())
               .str();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent =
          s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
      out += ",\n" + JsonObject()
                         .add("name", s.name)
                         .add("cat", std::string("ledger"))
                         .add("ph", std::string("X"))
                         .add("ts", s.start_us)
                         .add("dur", s.end_us - s.start_us)
                         .add("pid", pid)
                         .add("tid", 1.0)
                         .raw("args", JsonObject()
                                          .add("id", static_cast<double>(i))
                                          .add("parent", static_cast<double>(s.parent))
                                          .add("parent_name", parent)
                                          .str())
                         .str();
    }
    return write_file(path, out + kTail);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };
  bool enabled_;
  common::WallTimer clock_;
  std::vector<Span> spans_;
};

/// Epoch spans from the observer stream (in-process backends publish epoch
/// boundaries live; the distributed master republishes them in slices).
class EpochSpans final : public core::TrainObserver {
 public:
  EpochSpans(Tracer& tracer, int parent) : tracer_(tracer), parent_(parent) {}
  void on_epoch_started(std::uint32_t epoch) override {
    span_ = tracer_.begin("epoch " + std::to_string(epoch), parent_);
    timer_.reset();
  }
  void on_epoch_completed(const core::EpochRecord&) override {
    tracer_.end(span_);
    epoch_ms.push_back(timer_.elapsed_s() * 1e3);
  }
  std::vector<double> epoch_ms;

 private:
  Tracer& tracer_;
  int parent_;
  int span_ = -1;
  common::WallTimer timer_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  core::Backend backend;
  std::uint32_t grid_side;
  std::size_t lanes;  ///< threads-backend lanes (1 elsewhere)
  std::uint32_t epochs;  ///< per rep
  std::uint32_t smoke_epochs;
  bool tiny;  ///< GanArch::tiny(), batch 16, fitness batch 16
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Epochs per rep are chosen so one rep trains for a quarter to half a second:
// the host's slow phases last seconds, so the best of many short reps is
// steadier than the best of a few long ones (README.md, "Noise").
constexpr Workload kWorkloads[] = {
    {"seq-paper", core::Backend::kSequential, 2, 1, 1, 1, false},
    {"threads-paper", core::Backend::kThreads, 3, 4, 1, 1, false},
    {"tcp-paper", core::Backend::kDistributedTcp, 2, 1, 4, 1, false},
    {"tcp-tiny", core::Backend::kDistributedTcp, 2, 1, 300, 50, true},
};

bool is_tcp(const Workload& w) { return w.backend == core::Backend::kDistributedTcp; }

core::RunSpec spec_of(const Workload& w, std::uint32_t epochs, std::uint64_t seed,
                      const std::string& data_dir) {
  core::RunSpec spec;
  spec.backend = w.backend;
  spec.threads = w.lanes;
  spec.dataset.kind = core::DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = data_dir;
  core::TrainingConfig& config = spec.config;  // Table I defaults
  config.grid_rows = config.grid_cols = w.grid_side;
  config.iterations = epochs;
  config.seed = seed;
  if (w.tiny) {
    config.arch = nn::GanArch::tiny();
    config.batch_size = 16;
    config.fitness_eval_samples = 16;
  }
  return spec;
}

double samples_per_run(const core::TrainingConfig& c) {
  return static_cast<double>(c.grid_cells()) * c.batch_size *
         c.batches_per_iteration * c.iterations;
}

// ---------------------------------------------------------------------------
// Reps.
// ---------------------------------------------------------------------------

struct Routine {
  double wall_s = 0.0;
  double calls = 0.0;
};

struct Rep {
  std::string error;  ///< empty when the rep ran to completion
  double setup_s = 0.0;
  double train_s = 0.0;
  double peak_rss_mb = 0.0;  ///< this rep's peak (max over ranks on TCP)
  std::vector<double> fitnesses;  ///< g then d, per cell
  std::string fitness_text;       ///< bit-comparable rendering of fitnesses
  std::map<std::string, Routine> routines;  ///< summed over lanes / slaves
  double lane_wall_s = 0.0;  ///< lanes x train wall (in-process), sum of slave walls (TCP)
  double train_flops = 0.0;  ///< in-process only
  std::vector<double> epoch_ms;
};

/// This process' peak resident set (VmHWM) in MB.
double own_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Restart the VmHWM peak at the current resident set, so the next reading
/// covers one rep only rather than every rep since the process started.
void reset_own_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

Rep run_inprocess_rep(const core::RunSpec& spec, bool observe, Tracer& tracer,
                      int parent) {
  Rep rep;
  reset_own_peak_rss();
  try {
    common::WallTimer setup;
    const int setup_span = tracer.begin("setup", parent);
    core::Session session(spec);
    if (!session.prepare()) {
      rep.error = session.error();
      return rep;
    }
    if (session.trainer() == nullptr) {
      rep.error = "no in-process trainer: " + session.error();
      return rep;
    }
    tracer.end(setup_span);
    rep.setup_s = setup.elapsed_s();

    const int train_span = tracer.begin("train", parent);
    EpochSpans epochs(tracer, train_span);
    if (observe) session.observers().subscribe(&epochs);
    common::WallTimer train;
    const core::RunResult result = session.run();
    rep.train_s = train.elapsed_s();
    tracer.end(train_span);

    for (const auto* side : {&result.g_fitnesses, &result.d_fitnesses}) {
      rep.fitnesses.insert(rep.fitnesses.end(), side->begin(), side->end());
    }
    for (const double f : rep.fitnesses) rep.fitness_text += num(f) + " ";
    for (const auto& name : result.profiler.names()) {
      const auto cost = result.profiler.cost(name);
      rep.routines[name] = {cost.wall_s, static_cast<double>(cost.calls)};
    }
    rep.lane_wall_s = static_cast<double>(spec.threads) * rep.train_s;
    rep.train_flops = result.train_flops;
    rep.epoch_ms = std::move(epochs.epoch_ms);
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  rep.peak_rss_mb = own_peak_rss_mb();
  return rep;
}

/// Run argv[0] with stdout+stderr into `log_path`; returns the wait status,
/// or -1 (with `error` set) when it could not be started. `peak_rss_mb`
/// receives the largest resident set of the child and its reaped descendants.
int spawn_and_wait(const std::vector<std::string>& argv, const std::string& log_path,
                   std::string* error, double* peak_rss_mb) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = std::string("cannot start ") + argv[0] + ": " + std::strerror(rc);
    return -1;
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
  return status;
}

/// One cellgan_launch world. Training time is the slowest slave's epoch loop
/// (the sum of its routine walls), not rank 0's RunResult wall: the master
/// leaves only at the next 50 ms heartbeat tick after the last slave reports,
/// which quantizes every rank's wall in 50 ms steps. Setup is the rest of the
/// launcher's wall time: process start, IDX loads, TCP bootstrap, config
/// broadcast, result collection and that tick.
Rep run_tcp_rep(const core::RunSpec& spec, const std::string& spec_path,
                const std::string& prefix, Tracer& tracer, int parent) {
  Rep rep;
  const auto ranks = static_cast<int>(spec.config.grid_cells()) + 1;
  const auto rank_json = [&](int rank) {
    return prefix + ".rank" + std::to_string(rank) + ".json";
  };
  for (int rank = 0; rank < ranks; ++rank) std::remove(rank_json(rank).c_str());
  const std::string log_path = prefix + ".launch.log";
  const int span = tracer.begin("cellgan_launch", parent);
  common::WallTimer wall;
  const int status = spawn_and_wait({LEDGER_LAUNCHER, "--spec", spec_path,
                                     "--rank-results", prefix, "--launch-timeout",
                                     "60"},
                                    log_path, &rep.error, &rep.peak_rss_mb);
  const double launcher_s = wall.elapsed_s();
  tracer.end(span);
  if (status < 0) return rep;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep.error = "cellgan_launch failed (status " + std::to_string(status) +
                "); see " + log_path;
    return rep;
  }
  const std::string rank0 = read_file(rank_json(0));
  const std::string g = json_array(rank0, "g_fitnesses");
  const std::string d = json_array(rank0, "d_fitnesses");
  if (g.empty() || d.empty()) {
    rep.error = "rank 0 result JSON incomplete: " + rank_json(0);
    return rep;
  }
  rep.fitness_text = g + " " + d;
  rep.fitnesses = parse_numbers(g);
  for (const double f : parse_numbers(d)) rep.fitnesses.push_back(f);

  for (int rank = 1; rank < ranks; ++rank) {
    const std::string json = read_file(rank_json(rank));
    const auto slave_wall = json_number(json, "wall_s");
    const auto routines = json.find("\"routines\"");
    if (!slave_wall || routines == std::string::npos) {
      rep.error = "slave result JSON incomplete: " + rank_json(rank);
      return rep;
    }
    double loop_s = 0.0;
    for (const char* name : {"gather", "train", "update_genomes", "mutate"}) {
      const auto at = json.find("\"" + std::string(name) + "\": {", routines);
      if (at == std::string::npos) continue;
      const double routine_s = json_number(json, "wall_s", at).value_or(0.0);
      rep.routines[name].wall_s += routine_s;
      rep.routines[name].calls += json_number(json, "calls", at).value_or(0.0);
      loop_s += routine_s;
    }
    rep.train_s = std::max(rep.train_s, loop_s);
    rep.lane_wall_s += *slave_wall;
    rep.epoch_ms.push_back(loop_s * 1e3 / spec.config.iterations);
  }
  rep.setup_s = launcher_s - rep.train_s;
  return rep;
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

struct ProbeStat {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t count = 0;
};

/// Times single-layer calls: warm-up calls, then timed samples, one span per
/// sample. Calls shorter than kMinSampleUs are repeated inside a sample so
/// the clock resolution stays negligible; a sample reports the per-call mean.
class Prober {
 public:
  Prober(Tracer& tracer, int parent, bool smoke)
      : tracer_(tracer), parent_(parent), warmup_(smoke ? 1 : 5),
        samples_(smoke ? 3 : 30) {}

  const Tracer& tracer() const { return tracer_; }
  int warmup() const { return warmup_; }
  int samples() const { return samples_; }

  /// `fn` returns a value derived from the call's output; every value must be
  /// finite for the probe phase to pass.
  ProbeStat run(const std::string& name, const std::function<double()>& fn) {
    common::WallTimer warm;
    for (int i = 0; i < warmup_; ++i) check(name, fn());
    const double call_us = warm.elapsed_s() * 1e6 / warmup_;
    const int inner = std::clamp(static_cast<int>(kMinSampleUs / std::max(call_us, 1e-3)),
                                 1, 10000);
    std::vector<std::pair<double, double>> spans;
    for (int s = 0; s < samples_; ++s) {
      const double start = tracer_.now_us();
      for (int i = 0; i < inner; ++i) check(name, fn());
      const double end = tracer_.now_us();
      spans.emplace_back(start, start + (end - start) / inner);
    }
    return record(name, spans);
  }

  /// Record externally timed samples ({start_us, end_us} per call).
  ProbeStat record(const std::string& name,
                   const std::vector<std::pair<double, double>>& spans) {
    std::vector<double> ms;
    for (const auto& [start, end] : spans) {
      tracer_.add(name, parent_, start, end);
      ms.push_back((end - start) * 1e-3);
    }
    const ProbeStat stat{quantile(ms, 0.5), quantile(ms, 0.9), ms.size()};
    stats_[name] = stat;
    return stat;
  }

  void check(const std::string& name, double value) {
    if (!std::isfinite(value)) non_finite_.push_back(name);
  }

  const std::map<std::string, ProbeStat>& stats() const { return stats_; }
  const std::vector<std::string>& non_finite() const { return non_finite_; }

 private:
  static constexpr double kMinSampleUs = 200.0;
  Tracer& tracer_;
  int parent_;
  int warmup_;
  int samples_;
  std::map<std::string, ProbeStat> stats_;
  std::vector<std::string> non_finite_;
};

struct AllocCount {
  double allocs = 0.0;
  double mb = 0.0;
};

AllocCount count_allocs(const std::function<void()>& fn) {
  const auto allocs = g_heap_allocs.load();
  const auto bytes = g_heap_bytes.load();
  fn();
  return {static_cast<double>(g_heap_allocs.load() - allocs),
          static_cast<double>(g_heap_bytes.load() - bytes) / (1024.0 * 1024.0)};
}

/// Layer widths of the generator and discriminator MLPs of `arch`.
std::vector<std::size_t> generator_dims(const nn::GanArch& arch) {
  std::vector<std::size_t> dims{arch.latent_dim};
  dims.insert(dims.end(), arch.hidden_layers, arch.hidden_dim);
  dims.push_back(arch.image_dim);
  return dims;
}
std::vector<std::size_t> discriminator_dims(const nn::GanArch& arch) {
  std::vector<std::size_t> dims{arch.image_dim};
  dims.insert(dims.end(), arch.hidden_layers, arch.hidden_dim);
  dims.push_back(1);
  return dims;
}

/// The three GEMMs of every Linear layer of both networks at batch `m`.
/// Returns the flop-weighted rate in GFLOP/s; `gen_fwd_ms` receives the
/// summed matmul p50 of the generator's forward layers.
double gemm_probes(Prober& p, const nn::GanArch& arch, std::size_t m,
                   const std::string& prefix, common::Rng& rng, double* gen_fwd_ms) {
  double flops = 0.0;
  double ms = 0.0;
  *gen_fwd_ms = 0.0;
  for (const auto& dims : {generator_dims(arch), discriminator_dims(arch)}) {
    const bool generator = dims.front() == arch.latent_dim;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      const std::size_t k = dims[l];
      const std::size_t n = dims[l + 1];
      const auto x = tensor::Tensor::randn(m, k, rng);
      const auto w = tensor::Tensor::randn(k, n, rng);
      const auto dy = tensor::Tensor::randn(m, n, rng);
      const std::string shape =
          std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
      const double fwd =
          p.run(prefix + ".matmul_" + shape, [&] { return tensor::matmul(x, w).data()[0]; })
              .p50_ms;
      ms += fwd;
      ms += p.run(prefix + ".matmul_tn_" + shape,
                  [&] { return tensor::matmul_tn(x, dy).data()[0]; })
                .p50_ms;
      ms += p.run(prefix + ".matmul_nt_" + shape,
                  [&] { return tensor::matmul_nt(dy, w).data()[0]; })
                .p50_ms;
      flops += 3.0 * 2.0 * static_cast<double>(m * k * n);
      if (generator) *gen_fwd_ms += fwd;
    }
  }
  return flops / (ms * 1e-3) / 1e9;
}

/// Allgather of `bytes` per rank on a 4-rank loopback TCP world of threads
/// (the rendezvous the launcher does, inside one process). Rank 0 times each
/// call after a barrier; every rank checks what it received.
std::vector<std::pair<double, double>> allgather_samples(std::size_t bytes,
                                                         const Prober& p,
                                                         std::string* error) {
  const Tracer& tracer = p.tracer();
  constexpr int kRanks = 4;
  std::promise<std::string> endpoint_promise;
  std::shared_future<std::string> endpoint = endpoint_promise.get_future().share();
  std::vector<std::pair<double, double>> spans;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        minimpi::TcpTransportOptions options;
        options.world_size = kRanks;
        options.rank = rank;
        options.timeout_s = 30.0;
        std::unique_ptr<minimpi::TcpTransport> transport;
        if (rank == 0) {
          try {
            transport = std::make_unique<minimpi::TcpTransport>(options);
            endpoint_promise.set_value(transport->rendezvous_endpoint());
          } catch (...) {
            endpoint_promise.set_exception(std::current_exception());
            throw;
          }
        } else {
          options.rendezvous = endpoint.get();
          transport = std::make_unique<minimpi::TcpTransport>(options);
        }
        minimpi::Runtime runtime(kRanks, rank, std::move(transport));
        runtime.run([&](minimpi::Comm& world) {
          const std::vector<std::uint8_t> mine(bytes, static_cast<std::uint8_t>(rank + 1));
          for (int call = 0; call < p.warmup() + p.samples(); ++call) {
            world.barrier();
            const double start = tracer.now_us();
            const auto all = world.allgather(mine);
            const double end = tracer.now_us();
            for (int r = 0; r < kRanks; ++r) {
              const auto& got = all[static_cast<std::size_t>(r)];
              if (got.size() != bytes || got.back() != static_cast<std::uint8_t>(r + 1)) {
                throw std::runtime_error("allgather delivered a wrong payload");
              }
            }
            if (rank == 0 && call >= p.warmup()) spans.emplace_back(start, end);
          }
        });
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        *error = std::string("allgather probe: ") + e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return spans;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Results {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Mean training seconds of the kBestOf fastest reps: the fastest reps dodge
/// the host's slow phases, and averaging several keeps one lucky rep from
/// deciding the result.
constexpr std::size_t kBestOf = 3;
double fastest_mean_s(std::vector<double> train_s) {
  std::sort(train_s.begin(), train_s.end());
  const std::size_t n = std::min(kBestOf, train_s.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += train_s[i];
  return sum / static_cast<double>(n);
}

/// The traced reps folded into one: routine buckets, lane wall, flops and
/// epoch times summed or pooled; train_s is fastest_mean_s of the reps.
Rep pool_reps(const std::vector<Rep>& reps) {
  Rep pooled;
  std::vector<double> train_s;
  for (const Rep& rep : reps) {
    train_s.push_back(rep.train_s);
    for (const auto& [name, cost] : rep.routines) {
      pooled.routines[name].wall_s += cost.wall_s;
      pooled.routines[name].calls += cost.calls;
    }
    pooled.lane_wall_s += rep.lane_wall_s;
    pooled.train_flops += rep.train_flops;
    pooled.epoch_ms.insert(pooled.epoch_ms.end(), rep.epoch_ms.begin(), rep.epoch_ms.end());
  }
  pooled.train_s = fastest_mean_s(train_s);
  return pooled;
}

/// The probe phase plus the traced reps' routine buckets, as per-layer
/// metrics (names are module names; see README.md for what each moves).
std::vector<Metric> per_layer_metrics(const Workload& w, const core::RunSpec& spec,
                                      const std::vector<Rep>& traced_reps,
                                      double best_samples_per_s, Prober& p,
                                      std::string* error) {
  const Rep traced = pool_reps(traced_reps);
  const core::TrainingConfig& config = spec.config;
  const nn::GanArch& arch = config.arch;
  const std::size_t batch = config.batch_size;
  std::vector<Metric> out;
  const auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // data / datastore
  const std::string& dir = spec.dataset.idx_dir;
  const ProbeStat idx = p.run("data.idx_load", [&] {
    const auto loaded = data::load_mnist_idx(dir);
    return loaded ? static_cast<double>(loaded->first.size()) : NAN;
  });
  add("data.idx_load_ms", idx.p50_ms, "ms");
  auto loaded = data::load_mnist_idx(dir, error);
  if (!loaded) return {};
  data::Dataset train = std::move(loaded->first);
  if (arch.image_dim != data::kImageDim) {
    train = data::downsampled(
        train, static_cast<std::size_t>(std::lround(std::sqrt(arch.image_dim))));
  }
  auto feed = datastore::make_feed(config.data_plane, train, batch);
  std::size_t next = 0;
  add("datastore.batch_us",
      p.run("datastore.batch",
            [&] { return feed->batch(next++ % feed->batches_per_epoch()).data()[0]; })
              .p50_ms * 1e3,
      "us");

  // tensor
  common::Rng rng(config.seed);
  double paper_gen_fwd_ms = 0.0;
  double tiny_gen_fwd_ms = 0.0;
  add("tensor.gemm_gflops",
      gemm_probes(p, nn::GanArch::paper(), 100, "tensor.paper", rng, &paper_gen_fwd_ms),
      "GFLOP/s");
  add("tensor.gemm_tiny_gflops",
      gemm_probes(p, nn::GanArch::tiny(), 16, "tensor.tiny", rng, &tiny_gen_fwd_ms),
      "GFLOP/s");
  double elems = 0.0, fwd_ms = 0.0, bwd_ms = 0.0;
  for (const std::size_t cols : {std::size_t{784}, std::size_t{256}}) {
    const auto x = tensor::Tensor::randn(100, cols, rng);
    const auto y = tensor::tanh_forward(x);
    const auto dy = tensor::Tensor::randn(100, cols, rng);
    const std::string shape = "100x" + std::to_string(cols);
    fwd_ms += p.run("tensor.tanh_fwd_" + shape,
                    [&] { return tensor::tanh_forward(x).data()[0]; })
                  .p50_ms;
    bwd_ms += p.run("tensor.tanh_bwd_" + shape,
                    [&] { return tensor::tanh_backward(dy, y).data()[0]; })
                  .p50_ms;
    elems += 100.0 * static_cast<double>(cols);
  }
  add("tensor.tanh_fwd_gelem_s", elems / (fwd_ms * 1e-3) / 1e9, "Gelem/s");
  add("tensor.tanh_bwd_gelem_s", elems / (bwd_ms * 1e-3) / 1e9, "Gelem/s");

  // nn, at the workload's architecture and batch
  auto gen = nn::make_generator(arch, rng);
  auto disc = nn::make_discriminator(arch, rng);
  const auto z = tensor::Tensor::randn(batch, arch.latent_dim, rng);
  const auto image_grad = tensor::Tensor::randn(batch, arch.image_dim, rng);
  const auto logit_grad = tensor::Tensor::randn(batch, 1, rng);
  const auto fake = gen.forward(z);
  const double gen_fwd = p.run("nn.gen_fwd", [&] { return gen.forward(z).data()[0]; }).p50_ms;
  const double gen_bwd =
      p.run("nn.gen_bwd", [&] { return gen.backward(image_grad).data()[0]; }).p50_ms;
  const double disc_fwd =
      p.run("nn.disc_fwd", [&] { return disc.forward(fake).data()[0]; }).p50_ms;
  const double disc_bwd =
      p.run("nn.disc_bwd", [&] { return disc.backward(logit_grad).data()[0]; }).p50_ms;
  nn::Adam adam(config.initial_learning_rate);
  const double adam_ms = p.run("nn.adam", [&] {
                           adam.step(gen);
                           return static_cast<double>(gen.parameters()[0]->data()[0]);
                         }).p50_ms;
  add("nn.gen_fwd_ms", gen_fwd, "ms");
  add("nn.gen_bwd_ms", gen_bwd, "ms");
  add("nn.disc_fwd_ms", disc_fwd, "ms");
  add("nn.disc_bwd_ms", disc_bwd, "ms");
  add("nn.adam_ms", adam_ms, "ms");
  add("nn.gen_fwd_gemm_share", (w.tiny ? tiny_gen_fwd_ms : paper_gen_fwd_ms) / gen_fwd,
      "ratio");
  const AllocCount pass = count_allocs([&] {
    gen.forward(z);
    gen.backward(image_grad);
  });
  add("nn.allocs_per_pass", pass.allocs, "count");
  add("nn.alloc_mb_per_pass", pass.mb, "MB");

  // core.gan: the four calls of one cell-epoch, on fresh networks
  auto g = nn::make_generator(arch, rng);
  auto d = nn::make_discriminator(arch, rng);
  nn::Adam g_opt(config.initial_learning_rate);
  nn::Adam d_opt(config.initial_learning_rate);
  const auto real = feed->batch(0);
  const std::size_t eval_n = std::min<std::size_t>(config.fitness_eval_samples, real.rows());
  const auto eval_real = real.slice_rows(0, eval_n);
  const auto g_step = [&] {
    return core::train_generator_step(g, g_opt, d, batch, arch.latent_dim, rng);
  };
  const auto d_step = [&] {
    return core::train_discriminator_step(d, d_opt, g, real, arch.latent_dim, rng);
  };
  const auto eval = [&] {
    return core::evaluate_generator_loss(g, d, eval_n, arch.latent_dim, rng) +
           core::evaluate_discriminator_loss(d, g, eval_real, arch.latent_dim, rng);
  };
  const double g_step_ms = p.run("core.gan.g_step", g_step).p50_ms;
  const double d_step_ms = p.run("core.gan.d_step", d_step).p50_ms;
  const double eval_ms = p.run("core.gan.eval", eval).p50_ms;
  const AllocCount cell_epoch = count_allocs([&] {
    p.check("core.gan.cell_epoch", g_step() + d_step() + eval());
  });
  add("core.gan.g_step_ms", g_step_ms, "ms");
  add("core.gan.d_step_ms", d_step_ms, "ms");
  add("core.gan.eval_ms", eval_ms, "ms");
  add("core.gan.allocs_per_cell_epoch", cell_epoch.allocs, "count");
  add("core.gan.alloc_mb_per_cell_epoch", cell_epoch.mb, "MB");
  add("core.gan.step_explained", (gen_fwd + disc_fwd + disc_bwd + gen_bwd + adam_ms) / g_step_ms,
      "ratio");

  // core.cell / core.trainer, from the traced reps' routine buckets
  const double cell_epochs = static_cast<double>(config.grid_cells()) * config.iterations *
                             static_cast<double>(traced_reps.size());
  const auto routine = [&](const char* name) {
    const auto it = traced.routines.find(name);
    return it == traced.routines.end() ? 0.0 : it->second.wall_s;
  };
  double routine_sum = 0.0;
  for (const auto& [name, cost] : traced.routines) routine_sum += cost.wall_s;
  const double train_ms = routine("train") * 1e3 / cell_epochs;
  add("core.cell.train_ms", train_ms, "ms");
  add("core.cell.gather_ms", routine("gather") * 1e3 / cell_epochs, "ms");
  add("core.cell.update_genomes_ms", routine("update_genomes") * 1e3 / cell_epochs, "ms");
  add("core.cell.mutate_ms", routine("mutate") * 1e3 / cell_epochs, "ms");
  // The distributed backends report no flops; one probe cell-epoch has the
  // same count as every other.
  const double train_flops =
      traced.train_flops > 0.0
          ? traced.train_flops
          : core::TrainerCore::measure_workload(config, train).train_flops * cell_epochs;
  add("core.cell.train_gflops", train_flops / routine("train") / 1e9, "GFLOP/s");
  add("core.cell.train_explained", (g_step_ms + d_step_ms + eval_ms) / train_ms, "ratio");
  add("core.trainer.epoch_ms_p50", quantile(traced.epoch_ms, 0.5), "ms");
  add("core.trainer.epoch_ms_p90", quantile(traced.epoch_ms, 0.9), "ms");
  add("core.trainer.lane_idle_share", 1.0 - routine_sum / traced.lane_wall_s, "ratio");

  // evolve
  const auto genome = evolve::CellGenome::capture(g, d);
  const auto bytes = genome.serialize();
  const double encode_ms =
      p.run("evolve.encode", [&] { return static_cast<double>(genome.serialize().size()); })
          .p50_ms;
  const double decode_ms = p.run("evolve.decode", [&] {
                              return static_cast<double>(
                                  evolve::CellGenome::deserialize(bytes).generator_params[0]);
                            }).p50_ms;
  const double cells = config.grid_cells();
  add("evolve.genome_bytes", static_cast<double>(bytes.size()), "count");
  add("evolve.encode_ms", encode_ms, "ms");
  add("evolve.decode_ms", decode_ms, "ms");
  add("evolve.exchange_bytes_per_epoch",
      cells * (cells - 1.0) * static_cast<double>(bytes.size()), "bytes");

  // minimpi: a paper-size and a tiny-size genome on a loopback world
  const auto genome_bytes = [&](const nn::GanArch& a) {
    auto gg = nn::make_generator(a, rng);
    auto dd = nn::make_discriminator(a, rng);
    return evolve::CellGenome::capture(gg, dd).serialize().size();
  };
  std::string probe_error;
  const double allgather_ms =
      p.record("minimpi.allgather_paper",
               allgather_samples(genome_bytes(nn::GanArch::paper()), p, &probe_error))
          .p50_ms;
  const double allgather_tiny_ms =
      p.record("minimpi.allgather_tiny",
               allgather_samples(genome_bytes(nn::GanArch::tiny()), p, &probe_error))
          .p50_ms;
  if (!probe_error.empty()) *error = probe_error;
  add("minimpi.allgather_ms", allgather_ms, "ms");
  add("minimpi.allgather_tiny_us", allgather_tiny_ms * 1e3, "us");
  add("minimpi.gather_wait_share", routine("gather") / traced.lane_wall_s, "ratio");

  add("trace.overhead",
      samples_per_run(config) / traced.train_s / best_samples_per_s, "ratio");
  return out;
}

// ---------------------------------------------------------------------------
// Run header, environment hygiene, IDX fixture.
// ---------------------------------------------------------------------------

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  const auto end = s.find_last_not_of(" \t");
  return begin == std::string::npos ? "" : s.substr(begin, end - begin + 1);
}

/// Where the numbers came from: cores, CPU, ISA, build, compiler, revision.
JsonObject run_header(const std::string& git_rev) {
  static const char* kIsaFlags[] = {"sse4_2", "avx", "avx2", "fma", "avx512f",
                                    "avx512bw", "asimd", "sve"};
  std::string cpu = "unknown";
  std::string isa;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = trim(line.substr(0, colon));
    const std::string value = trim(line.substr(colon + 1));
    if (cpu == "unknown" && (key == "model name" || key == "Model")) cpu = value;
    if (isa.empty() && (key == "flags" || key == "Features")) {
      std::istringstream tokens(value);
      for (std::string token; tokens >> token;) {
        for (const char* flag : kIsaFlags) {
          if (token == flag) isa += (isa.empty() ? "" : " ") + token;
        }
      }
    }
  }
  return JsonObject()
      .add("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .add("cpu", cpu)
      .add("isa", isa.empty() ? std::string("none") : isa)
      .add("build_type", std::string(LEDGER_BUILD_TYPE))
      .add("compiler", std::string(LEDGER_COMPILER))
      .add("tensor_kernel", std::string(tensor::to_string(tensor::active_kernel_kind())))
      .add("git_rev", git_rev);
}

/// Unset every CELLGAN_* knob for this process and its children, so the
/// library defaults apply and removing a knob never breaks the ledger.
void strip_cellgan_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (text.rfind("CELLGAN_", 0) == 0) names.push_back(text.substr(0, text.find('=')));
  }
  for (const auto& name : names) {
    std::fprintf(stderr, "ledger: ignoring %s (library defaults apply)\n", name.c_str());
    ::unsetenv(name.c_str());
  }
}

/// One IDX split rendered by data::make_synthetic_mnist in fixed chunks (so
/// the bytes depend on `seed` only, not on the thread count), quantized the
/// way the IDX loader de-quantizes (byte / 127.5 - 1).
bool write_split(const std::string& dir, const char* images_name,
                 const char* labels_name, std::size_t count, std::uint64_t seed) {
  constexpr std::size_t kChunk = 2000;
  const std::size_t chunks = (count + kChunk - 1) / kChunk;
  data::IdxImages images;
  images.count = static_cast<std::uint32_t>(count);
  images.rows = images.cols = data::kImageSide;
  images.pixels.resize(count * data::kImageDim);
  std::vector<std::uint8_t> labels(count);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t c = next++; c < chunks; c = next++) {
      const std::size_t begin = c * kChunk;
      const std::size_t n = std::min(kChunk, count - begin);
      const data::Dataset part = data::make_synthetic_mnist(n, seed * 1000 + c);
      const auto floats = part.images.data();
      for (std::size_t i = 0; i < floats.size(); ++i) {
        images.pixels[begin * data::kImageDim + i] = static_cast<std::uint8_t>(
            std::clamp(std::lround((floats[i] + 1.0f) * 127.5f), 0L, 255L));
      }
      for (std::size_t i = 0; i < n; ++i) {
        labels[begin + i] = static_cast<std::uint8_t>(part.labels[i]);
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  return data::write_idx_images(dir + "/" + images_name, images) &&
         data::write_idx_labels(dir + "/" + labels_name, labels);
}

int make_fixture(const std::string& dir, std::size_t train, std::size_t test,
                 std::uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !write_split(dir, "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                         train, 2 * seed) ||
      !write_split(dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", test,
                   2 * seed + 1)) {
    std::fprintf(stderr, "ledger: cannot write the IDX fixture under %s\n", dir.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// One workload, end to end.
// ---------------------------------------------------------------------------

struct Options {
  std::string data;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_file;  ///< "" = <out>/<workload>.trace.json
  std::string git_rev;
};

/// Untraced reps stop once the next one would overrun --seconds, but never
/// before this many (setup_s is their median; determinism needs two).
constexpr std::size_t kMinReps = 3;
/// Traced reps per workload (their epoch spans and routine buckets pool).
constexpr std::size_t kTracedReps = 5;

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const auto& m : metrics) {
    out.raw(m.name, JsonObject().add("value", m.value).add("unit", m.unit).str());
  }
  return out.str();
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Per-rep diagnostics of one end-to-end metric (not gated).
JsonObject spread_json(const std::vector<double>& values) {
  const double median = quantile(values, 0.5);
  return JsonObject()
      .add("min", quantile(values, 0.0))
      .add("max", quantile(values, 1.0))
      .add("median", median)
      .add("iqr_share", (quantile(values, 0.75) - quantile(values, 0.25)) / median)
      .add("count", static_cast<double>(values.size()));
}

int run_workload(const Workload& w, const Options& o) {
  const core::RunSpec spec =
      spec_of(w, o.smoke ? w.smoke_epochs : w.epochs, o.seed, o.data);
  const core::TrainingConfig& config = spec.config;
  const bool trace = o.trace || o.smoke;
  const std::string base = o.out + "/" + w.name;
  std::error_code ec;
  std::filesystem::create_directories(o.out, ec);

  const JsonObject header = run_header(o.git_rev);
  std::printf("ledger: %s — %s, %ux%u grid, %zu lane(s), %u epochs, batch %u, seed %llu\n",
              w.name, core::to_string(w.backend), config.grid_rows, config.grid_cols,
              w.lanes, config.iterations, config.batch_size,
              static_cast<unsigned long long>(o.seed));
  std::printf("host: %s\n", header.str().c_str());
  if (::sysconf(_SC_NPROCESSORS_ONLN) < 4) {
    std::fprintf(stderr, "ledger: warning: fewer than 4 cores; threads-paper and the "
                         "tcp workloads will oversubscribe them\n");
  }

  const std::string spec_path = base + ".spec.json";
  if (is_tcp(w) && !spec.save(spec_path)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", spec_path.c_str());
    return 1;
  }
  Tracer tracer(trace);
  const int root = tracer.begin(std::string("workload ") + w.name, -1);
  const auto run_rep = [&](bool observe, int parent) {
    return is_tcp(w) ? run_tcp_rep(spec, spec_path, base, tracer, parent)
                     : run_inprocess_rep(spec, observe, tracer, parent);
  };

  // With --trace 1 the untraced reps only anchor trace.overhead and the
  // determinism check; half the budget keeps a traced run near --seconds
  // once the traced reps and the probe phase are added.
  const double untraced_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<Rep> reps;
  const common::WallTimer budget;
  for (;;) {
    const int span = tracer.begin("rep " + std::to_string(reps.size() + 1), root);
    reps.push_back(run_rep(false, span));
    tracer.end(span);
    const Rep& rep = reps.back();
    std::printf("rep %zu: setup %.4f s  train %.4f s  %.1f samples/s%s%s\n", reps.size(),
                rep.setup_s, rep.train_s, samples_per_run(config) / rep.train_s,
                rep.error.empty() ? "" : "  FAILED: ", rep.error.c_str());
    std::fflush(stdout);
    const double per_rep = budget.elapsed_s() / static_cast<double>(reps.size());
    if (o.smoke || (reps.size() >= kMinReps && budget.elapsed_s() + per_rep > untraced_s)) {
      break;
    }
  }

  std::vector<Rep> traced;
  for (std::size_t i = 0; trace && i < (o.smoke ? 1 : kTracedReps); ++i) {
    const int span = tracer.begin("traced rep " + std::to_string(i + 1), root);
    traced.push_back(run_rep(true, span));
    tracer.end(span);
  }

  // Checks: every rep completes with finite losses identical to the first
  // completed rep's (same seed, same data), traced reps included.
  std::vector<std::string> failures;
  const auto first_ok = std::find_if(reps.begin(), reps.end(),
                                     [](const Rep& rep) { return rep.error.empty(); });
  const std::string reference = first_ok == reps.end() ? "" : first_ok->fitness_text;
  const auto check = [&](const Rep& rep, const std::string& label) {
    std::string why = rep.error;
    if (why.empty() && rep.fitnesses.empty()) why = "no fitnesses reported";
    for (const double f : rep.fitnesses) {
      if (why.empty() && !std::isfinite(f)) why = "non-finite loss";
    }
    if (why.empty() && rep.fitness_text != reference) {
      why = "fitnesses differ from the first completed rep (determinism)";
    }
    if (!why.empty()) failures.push_back(label + ": " + why);
    return why.empty();
  };
  std::vector<double> sps;
  std::vector<double> trains;
  std::vector<double> setups;
  std::vector<double> rss;
  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const bool ok = check(reps[i], "rep " + std::to_string(i + 1));
    if (ok) {
      sps.push_back(samples_per_run(config) / reps[i].train_s);
      trains.push_back(reps[i].train_s);
      setups.push_back(reps[i].setup_s);
      rss.push_back(reps[i].peak_rss_mb);
    }
    reps_json += (i == 0 ? "" : ", ") + JsonObject()
                                            .add("setup_s", reps[i].setup_s)
                                            .add("train_s", reps[i].train_s)
                                            .add("peak_rss_mb", reps[i].peak_rss_mb)
                                            .add("ok", ok ? 1.0 : 0.0)
                                            .add("error", reps[i].error)
                                            .str();
  }
  reps_json += "]";
  std::size_t attempted = reps.size() + traced.size();
  std::size_t failed = reps.size() - sps.size();
  bool traced_ok = true;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (!check(traced[i], "traced rep " + std::to_string(i + 1))) {
      ++failed;
      traced_ok = false;
    }
  }

  // Co-tenant contention and heap memory retained from earlier reps only ever
  // add time and resident bytes, so the fastest reps and the smallest peak
  // are the steady estimates (README.md, "Noise"); setup_s is the median.
  Results results;
  const double best_sps = sps.empty() ? 0.0 : samples_per_run(config) / fastest_mean_s(trains);
  if (!sps.empty()) {
    results.end_to_end = {
        {"samples_per_s", best_sps, "samples/s"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mb", quantile(rss, 0.0), "MB"},
    };
  }

  Prober* probes = nullptr;
  std::optional<Prober> prober;
  if (!traced.empty() && traced_ok && !sps.empty()) {
    ++attempted;
    const int span = tracer.begin("probes", root);
    prober.emplace(tracer, span, o.smoke);
    probes = &*prober;
    std::string error;
    results.per_layer = per_layer_metrics(w, spec, traced, best_sps, *probes, &error);
    tracer.end(span);
    for (const auto& name : probes->non_finite()) error += " non-finite output: " + name;
    if (!error.empty()) {
      failures.push_back("probes:" + error);
      ++failed;
    }
  }
  tracer.end(root);

  // failed_share is gated through the result line's attempted/failed counts,
  // not as a metric: it reads 0 on every healthy run.
  const double failed_share = static_cast<double>(failed) / static_cast<double>(attempted);
  print_metrics("end-to-end (samples_per_s: 3 fastest reps; peak_rss_mb: smallest; "
                "setup_s: median):",
                results.end_to_end);
  std::printf("  %-36s %14.6g  %s\n", "failed_share", failed_share, "ratio");
  if (trace) print_metrics("per-layer (traced reps + probe p50s):", results.per_layer);
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  JsonObject file;
  file.add("workload", std::string(w.name))
      .add("backend", std::string(core::to_string(w.backend)))
      .add("grid_side", w.grid_side)
      .add("lanes", static_cast<double>(w.lanes))
      .add("epochs", config.iterations)
      .add("batch", config.batch_size)
      .add("seed", static_cast<double>(o.seed))
      .add("seconds", o.seconds)
      .add("smoke", o.smoke ? 1.0 : 0.0)
      .raw("header", header.str())
      .raw("reps", reps_json)
      .raw("summary", JsonObject()
                          .raw("samples_per_s", spread_json(sps).str())
                          .raw("setup_s", spread_json(setups).str())
                          .raw("peak_rss_mb", spread_json(rss).str())
                          .str())
      .raw("end_to_end", metrics_json(results.end_to_end))
      .raw("per_layer", metrics_json(results.per_layer));
  if (!traced.empty()) {
    const Rep pooled = pool_reps(traced);
    JsonObject routines;
    for (const auto& [name, cost] : pooled.routines) {
      routines.raw(name, JsonObject().add("wall_s", cost.wall_s).add("calls", cost.calls).str());
    }
    file.raw("traced_reps", JsonObject()
                                .add("count", static_cast<double>(traced.size()))
                                .add("fastest_mean_train_s", pooled.train_s)
                                .add("epoch_samples", static_cast<double>(pooled.epoch_ms.size()))
                                .raw("routines", routines.str())
                                .str());
  }
  if (probes != nullptr) {
    JsonObject stats;
    for (const auto& [name, s] : probes->stats()) {
      stats.raw(name, JsonObject()
                          .add("p50_ms", s.p50_ms)
                          .add("p90_ms", s.p90_ms)
                          .add("count", static_cast<double>(s.count))
                          .str());
    }
    file.raw("probes", stats.str());
  }
  std::string failures_json = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failures_json += (i == 0 ? "" : ", ") + json_string(failures[i]);
  }
  const bool correct = failures.empty();
  file.raw("failures", failures_json + "]")
      .raw("correct", correct ? "true" : "false")
      .add("attempted", static_cast<double>(attempted))
      .add("failed", static_cast<double>(failed))
      .add("failed_share", failed_share);
  const std::string results_path = base + ".json";
  if (!write_file(results_path, file.str() + "\n")) {
    std::fprintf(stderr, "ledger: cannot write %s\n", results_path.c_str());
  }
  std::printf("results: %s\n", results_path.c_str());
  if (trace) {
    std::string trace_path = o.trace_file;
    if (trace_path.empty()) {
      trace_path = base + ".trace.json";
      std::filesystem::remove(trace_path, ec);
    }
    const int pid = static_cast<int>(&w - kWorkloads) + 1;
    if (!tracer.append_to(trace_path, pid, w.name)) {
      std::fprintf(stderr, "ledger: cannot write %s\n", trace_path.c_str());
    }
    std::printf("trace: %s\n", trace_path.c_str());
  }

  std::printf("%s\n", JsonObject()
                          .raw("correct", correct ? "true" : "false")
                          .raw("attempted", std::to_string(attempted))
                          .raw("failed", std::to_string(failed))
                          .raw("metrics", metrics_json(o.trace ? results.per_layer
                                                               : results.end_to_end))
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  strip_cellgan_environment();
  common::CliParser cli(
      "ledger: wall-clock ledger of cellular GAN training (one workload per run)");
  cli.add_flag("workload", "", "workload to measure (see --list)");
  cli.add_flag("list", "false", "print the workload names and exit");
  cli.add_flag("data", "", "directory of the IDX quartet to train on");
  cli.add_flag("seed", "1", "training seed");
  cli.add_flag("seconds", "20", "time budget of the untraced reps (half of it with"
                                 " --trace 1)");
  cli.add_flag("trace", "0", "1: add traced reps and the probe phase, report per-layer"
                             " metrics and write a Chrome trace");
  cli.add_flag("smoke", "false", "one rep of a few epochs, traced, with short probes");
  cli.add_flag("out", "ledger-results", "directory for results, traces and rank JSONs");
  cli.add_flag("trace-file", "", "Chrome trace-event file the spans are appended to"
                                 " (default <out>/<workload>.trace.json)");
  cli.add_flag("git-rev", "unknown", "revision recorded in the run header");
  cli.add_flag("make-fixture", "", "write an MNIST-shaped IDX quartet to this directory"
                                   " (from --seed) and exit");
  cli.add_flag("train", "60000", "fixture training images");
  cli.add_flag("test", "10000", "fixture test images");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get_bool("list")) {
    for (const auto& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (!cli.get("make-fixture").empty()) {
    return make_fixture(cli.get("make-fixture"),
                        static_cast<std::size_t>(cli.get_int("train")),
                        static_cast<std::size_t>(cli.get_int("test")), seed);
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (cli.get("workload") == w.name) workload = &w;
  }
  if (workload == nullptr || cli.get("data").empty()) {
    std::fprintf(stderr, "ledger: need --data DIR and --workload (one of:");
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }
  Options options;
  options.data = cli.get("data");
  options.seed = seed;
  options.seconds = cli.get_double("seconds");
  options.trace = cli.get("trace") == "1";
  options.smoke = cli.get_bool("smoke");
  options.out = cli.get("out");
  options.trace_file = cli.get("trace-file");
  options.git_rev = cli.get("git-rev");
  return run_workload(*workload, options);
}
