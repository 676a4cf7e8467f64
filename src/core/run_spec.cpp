#include "core/run_spec.hpp"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "common/expect.hpp"
#include "core/session.hpp"  // BackendRegistry: parse-time backend validation
#include "evolve/exchange.hpp"

namespace cellgan::core {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSequential: return "sequential";
    case Backend::kThreads: return "threads";
    case Backend::kDistributed: return "distributed";
    case Backend::kDistributedTcp: return "distributed-tcp";
  }
  return "unknown";
}

std::optional<Backend> backend_from_string(std::string_view name) {
  if (name == "sequential" || name == "seq") return Backend::kSequential;
  if (name == "threads" || name == "parallel") return Backend::kThreads;
  if (name == "distributed" || name == "dist") return Backend::kDistributed;
  if (name == "distributed-tcp" || name == "tcp") return Backend::kDistributedTcp;
  return std::nullopt;
}

std::string registered_backend_names() {
  std::string joined;
  for (const auto& name : BackendRegistry::instance().names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

namespace {

/// Resolve a user-supplied backend name against both the enum vocabulary and
/// the live registry; on failure `error` holds a diagnostic listing every
/// registered backend (the parse-time rejection that used to happen only
/// inside Session::run).
std::optional<Backend> resolve_backend_name(const std::string& name,
                                            std::string* error) {
  const auto backend = backend_from_string(name);
  if (!backend) {
    if (BackendRegistry::instance().has(name)) {
      // Registered under a name outside the RunSpec vocabulary (custom
      // vehicles normally re-register a built-in name to swap it everywhere).
      *error = "backend '" + name + "' is registered with the Session but is "
               "not a RunSpec backend; re-register it as one of: sequential, "
               "threads, distributed, distributed-tcp";
    } else {
      *error = "unknown backend '" + name + "' (registered: " +
               registered_backend_names() + ")";
    }
    return std::nullopt;
  }
  if (!BackendRegistry::instance().has(to_string(*backend))) {
    *error = "backend '" + name + "' is not registered in this build (registered: " +
             registered_backend_names() + ")";
    return std::nullopt;
  }
  return backend;
}

}  // namespace

const char* to_string(CostProfileKind kind) {
  switch (kind) {
    case CostProfileKind::kNone: return "none";
    case CostProfileKind::kTable3: return "table3";
    case CostProfileKind::kTable4: return "table4";
  }
  return "unknown";
}

std::optional<CostProfileKind> cost_profile_from_string(std::string_view name) {
  if (name == "none") return CostProfileKind::kNone;
  if (name == "table3") return CostProfileKind::kTable3;
  if (name == "table4") return CostProfileKind::kTable4;
  return std::nullopt;
}

std::optional<LossMode> loss_mode_from_string(std::string_view name) {
  if (name == "heuristic") return LossMode::kHeuristic;
  if (name == "minimax") return LossMode::kMinimax;
  if (name == "lsq" || name == "least-squares") return LossMode::kLeastSquares;
  if (name == "mustangs") return LossMode::kMustangs;
  if (name == "wasserstein" || name == "wgan") return LossMode::kWasserstein;
  return std::nullopt;
}

std::optional<ExchangeMode> exchange_mode_from_string(std::string_view name) {
  if (name == "allgather") return ExchangeMode::kAllgather;
  if (name == "async-neighbors" || name == "async") {
    return ExchangeMode::kAsyncNeighbors;
  }
  return std::nullopt;
}

std::string registered_exchange_policy_names() {
  std::string joined;
  for (const auto& name : evolve::exchange_policy_names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

bool validate_exchange(const TrainingConfig& config, std::string* error) {
  if (config.exchange_policy != evolve::ExchangePolicyKind::kCellular &&
      config.exchange_mode == ExchangeMode::kAsyncNeighbors) {
    if (error != nullptr) {
      *error = std::string("exchange policy '") +
               evolve::to_string(config.exchange_policy) +
               "' needs the allgather transport (async-neighbors only moves "
               "neighbor genomes)";
    }
    return false;
  }
  return true;
}

// --- DatasetSpec ------------------------------------------------------------

std::optional<DatasetSpec> DatasetSpec::parse(const std::string& text,
                                              std::string* error) {
  return parse(text, DatasetSpec{}, error);
}

std::optional<DatasetSpec> DatasetSpec::parse(const std::string& text,
                                              const DatasetSpec& base,
                                              std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<DatasetSpec> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  DatasetSpec spec = base;
  if (text.rfind("idx:", 0) == 0) {
    spec.kind = Kind::kIdx;
    spec.idx_dir = text.substr(4);
    if (spec.idx_dir.empty()) return fail("idx: dataset needs a directory");
    return spec;
  }
  spec.kind = Kind::kSynthetic;
  spec.idx_dir.clear();
  if (text == "synthetic") return spec;
  if (text.rfind("synthetic:", 0) == 0) {
    // strtoull silently wraps negative or overflowing input, so digit runs
    // are parsed through the checked helper.
    const auto parse_unsigned = [](const std::string& digits, std::uint64_t& out) {
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        return false;
      }
      errno = 0;
      out = std::strtoull(digits.c_str(), nullptr, 10);
      return errno != ERANGE;
    };
    std::string rest = text.substr(10);
    std::string count = rest;
    const auto at = rest.find('@');
    if (at != std::string::npos) {
      count = rest.substr(0, at);
      const std::string seed_text = rest.substr(at + 1);
      if (!parse_unsigned(seed_text, spec.seed)) {
        return fail("bad dataset seed: '" + seed_text + "'");
      }
    }
    std::uint64_t samples = 0;
    if (!parse_unsigned(count, samples) || samples == 0) {
      return fail("bad synthetic sample count: '" + count + "'");
    }
    spec.samples = static_cast<std::size_t>(samples);
    return spec;
  }
  return fail("unknown dataset '" + text +
              "' (want synthetic[:N[@SEED]] or idx:DIR)");
}

std::string DatasetSpec::to_text() const {
  if (kind == Kind::kIdx) return "idx:" + idx_dir;
  return "synthetic:" + std::to_string(samples) + "@" + std::to_string(seed);
}

// --- command-line flags -----------------------------------------------------

void RunSpec::add_flags(common::CliParser& cli, const RunSpec& defaults) {
  cli.add_flag("spec", "", "load a RunSpec JSON file first; explicit flags override");
  cli.add_flag("backend", to_string(defaults.backend),
               "execution backend: sequential | threads | distributed |"
               " distributed-tcp");
  cli.add_flag("threads", std::to_string(defaults.threads),
               "worker lanes for --backend threads");
  cli.add_flag("grid", std::to_string(defaults.config.grid_rows),
               "grid side (grid x grid cells)");
  cli.add_flag("iterations", std::to_string(defaults.config.iterations),
               "training epochs");
  cli.add_flag("dataset", defaults.dataset.to_text(),
               "training data: synthetic[:N[@SEED]] | idx:DIR");
  cli.add_flag("samples", std::to_string(defaults.dataset.samples),
               "shorthand for the synthetic dataset's sample count");
  cli.add_flag("seed", std::to_string(defaults.config.seed), "global training seed");
  cli.add_flag("loss", to_string(defaults.config.loss_mode),
               "objective: heuristic | minimax | lsq | mustangs | wasserstein");
  cli.add_flag("exchange", evolve::to_string(defaults.config.exchange_policy),
               "population-exchange policy: cellular | ltfb | gap");
  cli.add_flag("exchange-transport", to_string(defaults.config.exchange_mode),
               "genome transport: allgather | async-neighbors (cellular only)");
  cli.add_flag("exchange-every", std::to_string(defaults.config.exchange_every),
               "ltfb tournament / gap rotation cadence in epochs");
  cli.add_flag("conditional", defaults.config.conditional != 0 ? "true" : "false",
               "class-conditional training: one-hot labels ride the latent and"
               " image planes");
  char weight_clip_default[32];
  std::snprintf(weight_clip_default, sizeof(weight_clip_default), "%g",
                defaults.config.weight_clip);
  cli.add_flag("weight-clip", weight_clip_default,
               "critic weight-clipping bound for --loss wasserstein");
  cli.add_flag("batch-size", std::to_string(defaults.config.batch_size),
               "training batch size");
  cli.add_flag("batches-per-iteration",
               std::to_string(defaults.config.batches_per_iteration),
               "gradient batches per epoch per cell");
  char dieting_default[32];
  std::snprintf(dieting_default, sizeof(dieting_default), "%g",
                defaults.config.data_dieting_fraction);
  cli.add_flag("dieting", dieting_default,
               "data-dieting fraction: each cell trains on this share of the data");
  cli.add_flag("paper-arch",
               defaults.config.arch == nn::GanArch::paper() ? "true" : "false",
               "use the paper's full-size MLPs (Table I); upgrade-only");
  cli.add_flag("cost-profile", to_string(defaults.cost_profile),
               "virtual-time calibration: none | table3 | table4");
  cli.add_flag("tensor-kernel", tensor::to_string(defaults.tensor_kernel),
               "tensor microkernels: scalar (bit-exact reference) | simd"
               " (packed vectorized)");
  cli.add_flag("data-plane", datastore::to_string(defaults.config.data_plane),
               "batch source: legacy (per-trainer DataLoader) | store (shared"
               " SampleStore); bit-identical trajectories");
  cli.add_flag("eval-every", std::to_string(defaults.observers.eval_every),
               "compute IS/FID/mode coverage every N epochs (0 = off; needs a"
               " metric evaluator, attached by cellgan_run / table2_metrics)");
  cli.add_flag("eval-samples", std::to_string(defaults.observers.eval_samples),
               "samples per generator / mixture in each metric evaluation");
  cli.add_flag("telemetry", defaults.observers.telemetry,
               "append a JSONL training-event stream to this file");
  cli.add_flag("checkpoint-every",
               std::to_string(defaults.observers.checkpoint_every),
               "write a rolling checkpoint every N epochs (0 = off)");
  cli.add_flag("checkpoint-path", defaults.observers.checkpoint_path,
               "rolling checkpoint file for --checkpoint-every");
  cli.add_flag("result-json", defaults.result_json,
               "write the unified RunResult JSON to this file");
}

std::optional<RunSpec> RunSpec::from_cli(const common::CliParser& cli,
                                         const RunSpec& defaults) {
  // Integer flags funnel through this guard before any unsigned cast, so a
  // negative value is a diagnostic instead of a 2^64 wrap-around.
  bool flags_ok = true;
  const auto int_flag = [&](const char* name, std::int64_t min) -> std::int64_t {
    const std::int64_t value = cli.get_int(name);
    if (value < min) {
      std::fprintf(stderr, "--%s must be >= %lld\n", name,
                   static_cast<long long>(min));
      flags_ok = false;
    }
    return value;
  };
  RunSpec spec = defaults;
  if (cli.was_set("spec")) {
    std::string error;
    auto loaded = RunSpec::load(cli.get("spec"), &error);
    if (!loaded) {
      std::fprintf(stderr, "--spec %s: %s\n", cli.get("spec").c_str(), error.c_str());
      return std::nullopt;
    }
    spec = *loaded;
  }
  if (cli.was_set("backend")) {
    std::string backend_error;
    const auto backend = resolve_backend_name(cli.get("backend"), &backend_error);
    if (!backend) {
      std::fprintf(stderr, "--backend: %s\n", backend_error.c_str());
      return std::nullopt;
    }
    spec.backend = *backend;
  }
  if (cli.was_set("threads")) {
    spec.threads = static_cast<std::size_t>(int_flag("threads", 1));
  }
  if (cli.was_set("grid")) {
    spec.config.grid_rows = spec.config.grid_cols =
        static_cast<std::uint32_t>(int_flag("grid", 1));
  }
  if (cli.was_set("iterations")) {
    spec.config.iterations = static_cast<std::uint32_t>(int_flag("iterations", 0));
  }
  if (cli.was_set("dataset")) {
    std::string error;
    const auto dataset = DatasetSpec::parse(cli.get("dataset"), spec.dataset, &error);
    if (!dataset) {
      std::fprintf(stderr, "--dataset: %s\n", error.c_str());
      return std::nullopt;
    }
    spec.dataset = *dataset;
  }
  if (cli.was_set("samples")) {
    spec.dataset.samples = static_cast<std::size_t>(int_flag("samples", 1));
  }
  if (cli.was_set("seed")) {
    spec.config.seed = static_cast<std::uint64_t>(int_flag("seed", 0));
  }
  if (cli.was_set("loss")) {
    const auto loss = loss_mode_from_string(cli.get("loss"));
    if (!loss) {
      std::fprintf(stderr, "unknown loss '%s' (want heuristic | minimax | lsq |"
                   " mustangs | wasserstein)\n", cli.get("loss").c_str());
      return std::nullopt;
    }
    spec.config.loss_mode = *loss;
  }
  if (cli.was_set("exchange")) {
    const auto policy = evolve::exchange_policy_from_string(cli.get("exchange"));
    if (!policy) {
      std::fprintf(stderr, "unknown exchange policy '%s' (registered: %s)\n",
                   cli.get("exchange").c_str(),
                   registered_exchange_policy_names().c_str());
      return std::nullopt;
    }
    spec.config.exchange_policy = *policy;
  }
  if (cli.was_set("exchange-transport")) {
    const auto exchange = exchange_mode_from_string(cli.get("exchange-transport"));
    if (!exchange) {
      std::fprintf(stderr, "unknown exchange transport '%s' (want allgather |"
                   " async-neighbors)\n", cli.get("exchange-transport").c_str());
      return std::nullopt;
    }
    spec.config.exchange_mode = *exchange;
  }
  if (cli.was_set("exchange-every")) {
    spec.config.exchange_every =
        static_cast<std::uint32_t>(int_flag("exchange-every", 1));
  }
  if (cli.was_set("conditional")) {
    spec.config.conditional = cli.get_bool("conditional") ? 1 : 0;
  }
  if (cli.was_set("weight-clip")) {
    const double clip = cli.get_double("weight-clip");
    if (!(clip > 0.0)) {  // negated so NaN is rejected
      std::fprintf(stderr, "--weight-clip must be > 0\n");
      flags_ok = false;
    }
    spec.config.weight_clip = clip;
  }
  {
    std::string exchange_error;
    if (!validate_exchange(spec.config, &exchange_error)) {
      std::fprintf(stderr, "%s\n", exchange_error.c_str());
      flags_ok = false;
    }
  }
  if (cli.was_set("batch-size")) {
    spec.config.batch_size = static_cast<std::uint32_t>(int_flag("batch-size", 1));
  }
  if (cli.was_set("batches-per-iteration")) {
    spec.config.batches_per_iteration =
        static_cast<std::uint32_t>(int_flag("batches-per-iteration", 1));
  }
  if (cli.was_set("dieting")) {
    const double fraction = cli.get_double("dieting");
    if (!(fraction > 0.0 && fraction <= 1.0)) {  // negated so NaN is rejected
      std::fprintf(stderr, "--dieting must be in (0, 1]\n");
      flags_ok = false;
    }
    spec.config.data_dieting_fraction = fraction;
  }
  // Upgrade-only: programs whose defaults already use the paper arch (with
  // their own batch size) are untouched, and an explicit --batch-size wins.
  if (cli.was_set("paper-arch") && cli.get_bool("paper-arch") &&
      spec.config.arch != nn::GanArch::paper()) {
    spec.config.arch = nn::GanArch::paper();
    if (!cli.was_set("batch-size")) spec.config.batch_size = 100;
  }
  if (cli.was_set("cost-profile")) {
    const auto kind = cost_profile_from_string(cli.get("cost-profile"));
    if (!kind) {
      std::fprintf(stderr, "unknown cost profile '%s' (want none | table3 |"
                   " table4)\n", cli.get("cost-profile").c_str());
      return std::nullopt;
    }
    spec.cost_profile = *kind;
  }
  if (cli.was_set("tensor-kernel")) {
    const auto kernel = tensor::kernel_kind_from_string(cli.get("tensor-kernel"));
    if (!kernel) {
      std::fprintf(stderr, "unknown tensor kernel '%s' (want scalar | simd)\n",
                   cli.get("tensor-kernel").c_str());
      return std::nullopt;
    }
    spec.tensor_kernel = *kernel;
  }
  if (cli.was_set("data-plane")) {
    const auto plane = datastore::data_plane_from_string(cli.get("data-plane"));
    if (!plane) {
      std::fprintf(stderr, "unknown data plane '%s' (want legacy | store)\n",
                   cli.get("data-plane").c_str());
      return std::nullopt;
    }
    spec.config.data_plane = *plane;
  }
  if (cli.was_set("eval-every")) {
    spec.observers.eval_every = static_cast<std::uint32_t>(int_flag("eval-every", 0));
  }
  if (cli.was_set("eval-samples")) {
    // FID fits a Gaussian per side; fewer than 2 samples has no covariance.
    spec.observers.eval_samples =
        static_cast<std::size_t>(int_flag("eval-samples", 2));
  }
  if (cli.was_set("telemetry")) spec.observers.telemetry = cli.get("telemetry");
  if (cli.was_set("checkpoint-every")) {
    spec.observers.checkpoint_every =
        static_cast<std::uint32_t>(int_flag("checkpoint-every", 0));
  }
  if (cli.was_set("checkpoint-path")) {
    spec.observers.checkpoint_path = cli.get("checkpoint-path");
  }
  if (spec.observers.checkpoint_every > 0 && spec.observers.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint-path\n");
    flags_ok = false;
  }
  if (cli.was_set("result-json")) spec.result_json = cli.get("result-json");
  if (!flags_ok) return std::nullopt;
  return spec;
}

std::optional<RunSpec> RunSpec::from_args(int argc, const char* const* argv,
                                          const std::string& description,
                                          const RunSpec& defaults) {
  common::CliParser cli(description);
  add_flags(cli, defaults);
  if (!cli.parse(argc, argv)) return std::nullopt;
  return from_cli(cli, defaults);
}

// --- JSON text form ---------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Minimal parser for the subset RunSpec emits: one flat object of
/// string/number values plus one nested "config" object.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }
  const std::string& error() const { return error_; }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool at_end() {
    skip_space();
    return pos_ >= text_.size();
  }

  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out += c;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool read_number(std::string& out) {
    skip_space();
    out.clear();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      out += text_[pos_++];
    }
    if (out.empty()) return fail("expected a number");
    return true;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool parse_u64(const std::string& digits, std::uint64_t& out) {
  // strtoull wraps negative input; only plain digit runs are unsigned here.
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(digits.c_str(), nullptr, 10);
  return errno != ERANGE;
}

bool parse_u32(const std::string& digits, std::uint32_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(digits, value) ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(value);
  return true;
}

bool parse_f64(const std::string& digits, double& out) {
  char* end = nullptr;
  out = std::strtod(digits.c_str(), &end);
  return end != digits.c_str() && *end == '\0';
}

bool apply_config_key(JsonReader& reader, const std::string& key,
                      TrainingConfig& config) {
  std::string value;
  if (key == "loss_mode" || key == "exchange_mode") {
    if (!reader.read_string(value)) return false;
    if (key == "loss_mode") {
      const auto mode = loss_mode_from_string(value);
      if (!mode) return reader.fail("unknown loss_mode '" + value + "'");
      config.loss_mode = *mode;
    } else {
      const auto mode = exchange_mode_from_string(value);
      if (!mode) return reader.fail("unknown exchange_mode '" + value + "'");
      config.exchange_mode = *mode;
    }
    return true;
  }
  if (key == "data_plane") {
    if (!reader.read_string(value)) return false;
    const auto plane = datastore::data_plane_from_string(value);
    if (!plane) return reader.fail("unknown data_plane '" + value + "'");
    config.data_plane = *plane;
    return true;
  }
  if (key == "exchange_policy") {
    if (!reader.read_string(value)) return false;
    const auto policy = evolve::exchange_policy_from_string(value);
    if (!policy) {
      return reader.fail("unknown exchange_policy '" + value + "' (registered: " +
                         registered_exchange_policy_names() + ")");
    }
    config.exchange_policy = *policy;
    return true;
  }
  if (!reader.read_number(value)) return false;
  std::size_t* size_field = key == "latent_dim"      ? &config.arch.latent_dim
                            : key == "hidden_dim"    ? &config.arch.hidden_dim
                            : key == "hidden_layers" ? &config.arch.hidden_layers
                            : key == "image_dim"     ? &config.arch.image_dim
                                                     : nullptr;
  if (size_field != nullptr) {
    std::uint64_t parsed = 0;
    if (!parse_u64(value, parsed)) return reader.fail("bad " + key);
    *size_field = static_cast<std::size_t>(parsed);
    return true;
  }
  std::uint32_t* u32_field =
      key == "iterations"                  ? &config.iterations
      : key == "population_per_cell"       ? &config.population_per_cell
      : key == "tournament_size"           ? &config.tournament_size
      : key == "grid_rows"                 ? &config.grid_rows
      : key == "grid_cols"                 ? &config.grid_cols
      : key == "batch_size"                ? &config.batch_size
      : key == "discriminator_skip_steps"  ? &config.discriminator_skip_steps
      : key == "batches_per_iteration"     ? &config.batches_per_iteration
      : key == "fitness_eval_samples"      ? &config.fitness_eval_samples
      : key == "genome_record_every"       ? &config.genome_record_every
      : key == "genome_record_every_b"     ? &config.genome_record_every_b
      : key == "exchange_every"            ? &config.exchange_every
      : key == "conditional"               ? &config.conditional
                                           : nullptr;
  if (u32_field != nullptr) {
    if (!parse_u32(value, *u32_field)) return reader.fail("bad " + key);
    return true;
  }
  double* f64_field =
      key == "mixture_mutation_scale"   ? &config.mixture_mutation_scale
      : key == "initial_learning_rate"  ? &config.initial_learning_rate
      : key == "lr_mutation_sigma"      ? &config.lr_mutation_sigma
      : key == "lr_mutation_probability" ? &config.lr_mutation_probability
      : key == "data_dieting_fraction"  ? &config.data_dieting_fraction
      : key == "weight_clip"            ? &config.weight_clip
                                        : nullptr;
  if (f64_field != nullptr) {
    if (!parse_f64(value, *f64_field)) return reader.fail("bad " + key);
    return true;
  }
  if (key == "seed") {
    if (!parse_u64(value, config.seed)) return reader.fail("bad seed");
    return true;
  }
  return reader.fail("unknown config key '" + key + "'");
}

bool parse_object(JsonReader& reader,
                  const std::function<bool(JsonReader&, const std::string&)>& on_key) {
  if (!reader.consume('{')) return false;
  if (reader.peek('}')) return reader.consume('}');
  for (;;) {
    std::string key;
    if (!reader.read_string(key)) return false;
    if (!reader.consume(':')) return false;
    if (!on_key(reader, key)) return false;
    if (reader.peek(',')) {
      if (!reader.consume(',')) return false;
      continue;
    }
    return reader.consume('}');
  }
}

}  // namespace

std::string RunSpec::to_text() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"backend\": \"" << to_string(backend) << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  std::string dataset_text;
  append_escaped(dataset_text, dataset.to_text());
  out << "  \"dataset\": " << dataset_text << ",\n";
  out << "  \"cost_profile\": \"" << to_string(cost_profile) << "\",\n";
  out << "  \"tensor_kernel\": \"" << tensor::to_string(tensor_kernel) << "\",\n";
  out << "  \"observers\": {\n";
  out << "    \"eval_every\": " << observers.eval_every << ",\n";
  out << "    \"eval_samples\": " << observers.eval_samples << ",\n";
  std::string telemetry_text;
  append_escaped(telemetry_text, observers.telemetry);
  out << "    \"telemetry\": " << telemetry_text << ",\n";
  out << "    \"checkpoint_every\": " << observers.checkpoint_every << ",\n";
  std::string checkpoint_text;
  append_escaped(checkpoint_text, observers.checkpoint_path);
  out << "    \"checkpoint_path\": " << checkpoint_text << "\n";
  out << "  },\n";
  std::string result_text;
  append_escaped(result_text, result_json);
  out << "  \"result_json\": " << result_text << ",\n";
  out << "  \"config\": {\n";
  out << "    \"latent_dim\": " << config.arch.latent_dim << ",\n";
  out << "    \"hidden_dim\": " << config.arch.hidden_dim << ",\n";
  out << "    \"hidden_layers\": " << config.arch.hidden_layers << ",\n";
  out << "    \"image_dim\": " << config.arch.image_dim << ",\n";
  out << "    \"iterations\": " << config.iterations << ",\n";
  out << "    \"population_per_cell\": " << config.population_per_cell << ",\n";
  out << "    \"tournament_size\": " << config.tournament_size << ",\n";
  out << "    \"grid_rows\": " << config.grid_rows << ",\n";
  out << "    \"grid_cols\": " << config.grid_cols << ",\n";
  out << "    \"mixture_mutation_scale\": " << format_double(config.mixture_mutation_scale)
      << ",\n";
  out << "    \"initial_learning_rate\": " << format_double(config.initial_learning_rate)
      << ",\n";
  out << "    \"lr_mutation_sigma\": " << format_double(config.lr_mutation_sigma)
      << ",\n";
  out << "    \"lr_mutation_probability\": "
      << format_double(config.lr_mutation_probability) << ",\n";
  out << "    \"batch_size\": " << config.batch_size << ",\n";
  out << "    \"discriminator_skip_steps\": " << config.discriminator_skip_steps
      << ",\n";
  out << "    \"batches_per_iteration\": " << config.batches_per_iteration << ",\n";
  out << "    \"fitness_eval_samples\": " << config.fitness_eval_samples << ",\n";
  out << "    \"loss_mode\": \"" << core::to_string(config.loss_mode) << "\",\n";
  out << "    \"exchange_mode\": \"" << core::to_string(config.exchange_mode)
      << "\",\n";
  out << "    \"exchange_policy\": \"" << evolve::to_string(config.exchange_policy)
      << "\",\n";
  out << "    \"exchange_every\": " << config.exchange_every << ",\n";
  out << "    \"conditional\": " << config.conditional << ",\n";
  out << "    \"weight_clip\": " << format_double(config.weight_clip) << ",\n";
  out << "    \"data_dieting_fraction\": "
      << format_double(config.data_dieting_fraction) << ",\n";
  out << "    \"genome_record_every\": " << config.genome_record_every << ",\n";
  out << "    \"genome_record_every_b\": " << config.genome_record_every_b
      << ",\n";
  out << "    \"data_plane\": \"" << datastore::to_string(config.data_plane)
      << "\",\n";
  out << "    \"seed\": " << config.seed << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

std::optional<RunSpec> RunSpec::from_text(const std::string& text,
                                          std::string* error) {
  RunSpec spec;
  JsonReader reader(text);
  const auto on_top_key = [&](JsonReader& r, const std::string& key) -> bool {
    std::string value;
    if (key == "backend") {
      if (!r.read_string(value)) return false;
      std::string backend_error;
      const auto backend = resolve_backend_name(value, &backend_error);
      if (!backend) return r.fail(backend_error);
      spec.backend = *backend;
      return true;
    }
    if (key == "threads") {
      if (!r.read_number(value)) return false;
      std::uint64_t threads = 0;
      if (!parse_u64(value, threads) || threads == 0) return r.fail("bad threads");
      spec.threads = static_cast<std::size_t>(threads);
      return true;
    }
    if (key == "dataset") {
      if (!r.read_string(value)) return false;
      std::string dataset_error;
      const auto dataset = DatasetSpec::parse(value, &dataset_error);
      if (!dataset) return r.fail(dataset_error);
      spec.dataset = *dataset;
      return true;
    }
    if (key == "cost_profile") {
      if (!r.read_string(value)) return false;
      const auto kind = cost_profile_from_string(value);
      if (!kind) return r.fail("unknown cost_profile '" + value + "'");
      spec.cost_profile = *kind;
      return true;
    }
    if (key == "tensor_kernel") {
      if (!r.read_string(value)) return false;
      const auto kernel = tensor::kernel_kind_from_string(value);
      if (!kernel) return r.fail("unknown tensor_kernel '" + value + "'");
      spec.tensor_kernel = *kernel;
      return true;
    }
    if (key == "result_json") return r.read_string(spec.result_json);
    if (key == "observers") {
      return parse_object(r, [&](JsonReader& obs, const std::string& obs_key) {
        std::string obs_value;
        if (obs_key == "telemetry") return obs.read_string(spec.observers.telemetry);
        if (obs_key == "checkpoint_path") {
          return obs.read_string(spec.observers.checkpoint_path);
        }
        if (!obs.read_number(obs_value)) return false;
        if (obs_key == "eval_every") {
          return parse_u32(obs_value, spec.observers.eval_every) ||
                 obs.fail("bad eval_every");
        }
        if (obs_key == "eval_samples") {
          std::uint64_t samples = 0;
          if (!parse_u64(obs_value, samples)) return obs.fail("bad eval_samples");
          spec.observers.eval_samples = static_cast<std::size_t>(samples);
          return true;
        }
        if (obs_key == "checkpoint_every") {
          return parse_u32(obs_value, spec.observers.checkpoint_every) ||
                 obs.fail("bad checkpoint_every");
        }
        return obs.fail("unknown observers key '" + obs_key + "'");
      });
    }
    if (key == "config") {
      return parse_object(r, [&](JsonReader& cr, const std::string& config_key) {
        return apply_config_key(cr, config_key, spec.config);
      });
    }
    return r.fail("unknown key '" + key + "'");
  };
  if (!parse_object(reader, on_top_key) || !reader.at_end()) {
    if (error != nullptr) {
      *error = reader.error().empty() ? "malformed RunSpec text" : reader.error();
    }
    return std::nullopt;
  }
  return spec;
}

std::optional<RunSpec> RunSpec::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return from_text(text.str(), error);
}

bool RunSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << to_text();
  return out.good();
}

}  // namespace cellgan::core
