#include "core/run_spec.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

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

// --- checked parsers, one per kind ------------------------------------------
//
// Each returns "" on success, or a diagnostic naming `name`: the flag or the
// spec-file key the text came from.

/// A count: digits only (strtoull would read a prefix and wrap a sign), at
/// most `max`, and at least `min`.
std::string parse_count(const std::string& text, const std::string& name,
                        std::uint64_t min, std::uint64_t max, std::uint64_t& out) {
  const bool digits =
      !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  const std::uint64_t value = digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE || value > max) {
    return name + " wants a whole number up to " + std::to_string(max) + ", got '" +
           text + "'";
  }
  if (value < min) return name + " must be >= " + std::to_string(min);
  out = value;
  return {};
}

namespace {

/// A count small enough for the field's type.
template <typename T>
std::string parse_count(const std::string& text, const std::string& name,
                        std::uint64_t min, T& out) {
  std::uint64_t value = 0;
  std::string problem =
      core::parse_count(text, name, min, std::numeric_limits<T>::max(), value);
  if (problem.empty()) out = static_cast<T>(value);
  return problem;
}

/// A real: the whole token, and finite.
std::string parse_real(const std::string& text, const std::string& name, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value)) {
    return name + " wants a finite number, got '" + text + "'";
  }
  out = value;
  return {};
}

std::string parse_bool(const std::string& text, const std::string& name, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
  } else if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
  } else {
    return name + " wants true or false, got '" + text + "'";
  }
  return {};
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

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
    const std::string rest = text.substr(10);
    const auto at = rest.find('@');
    std::string problem;
    if (at != std::string::npos) {
      problem = parse_count(rest.substr(at + 1), "dataset seed", 0, spec.seed);
    }
    if (problem.empty()) {
      problem =
          parse_count(rest.substr(0, at), "synthetic sample count", 1, spec.samples);
    }
    if (!problem.empty()) return fail(problem);
    return spec;
  }
  return fail("unknown dataset '" + text +
              "' (want synthetic[:N[@SEED]] or idx:DIR)");
}

std::string DatasetSpec::to_text() const {
  if (kind == Kind::kIdx) return "idx:" + idx_dir;
  return "synthetic:" + std::to_string(samples) + "@" + std::to_string(seed);
}

// --- the settings table -----------------------------------------------------

namespace {

/// Where a setting lives: its JSON section and key (no key: flag-only) and
/// its flag (no flag: spec-only), with the flag's help text.
struct Place {
  const char* section;  ///< "" (top level), "observers" or "config"
  const char* key;
  const char* flag;
  std::string help;
};

struct Setting {
  Place place;
  bool quoted;  ///< a JSON string (names, text) rather than a bare token
  std::function<std::string(const RunSpec&)> print;
  std::function<std::string(RunSpec&, const std::string& text, const std::string& name)>
      parse;
};

// Row builders. `field` is a generic lambda returning a reference to the
// setting's member, so one accessor serves both printing and parsing.

/// A bound beyond a count's minimum or on a real: the test and the rule the
/// diagnostic states.
struct Bound {
  bool (*holds)(double) = nullptr;
  const char* rule = "";
};

template <typename Field>
Setting count(Place place, Field field, std::uint64_t min = 0, Bound bound = {}) {
  return {std::move(place), false,
          [field](const RunSpec& spec) { return std::to_string(field(spec)); },
          [field, min, bound](RunSpec& spec, const std::string& text,
                              const std::string& name) {
            auto value = field(spec);
            std::string problem = parse_count(text, name, min, value);
            if (problem.empty() && bound.holds != nullptr &&
                !bound.holds(static_cast<double>(value))) {
              problem = name + " " + bound.rule + ", got " + text;
            }
            if (problem.empty()) field(spec) = value;
            return problem;
          }};
}

template <typename Field>
Setting real(Place place, Field field, Bound bound = {}) {
  return {std::move(place), false,
          [field](const RunSpec& spec) { return format_double(field(spec)); },
          [field, bound](RunSpec& spec, const std::string& text,
                         const std::string& name) {
            double value = 0.0;
            std::string problem = parse_real(text, name, value);
            if (problem.empty() && bound.holds != nullptr && !bound.holds(value)) {
              problem = name + " " + bound.rule;
            }
            if (problem.empty()) field(spec) = value;
            return problem;
          }};
}

template <typename Field>
Setting boolean(Place place, Field field) {
  return {std::move(place), false,
          [field](const RunSpec& spec) -> std::string {
            return field(spec) != 0 ? "true" : "false";
          },
          [field](RunSpec& spec, const std::string& text, const std::string& name) {
            bool value = false;
            std::string problem = parse_bool(text, name, value);
            if (problem.empty()) field(spec) = value ? 1 : 0;
            return problem;
          }};
}

/// A name from a closed set: `from_string` parses it, the enum's to_string
/// (found by argument-dependent lookup) prints it.
template <typename Field, typename Enum>
Setting one_of(Place place, Field field, std::string choices,
               std::optional<Enum> (*from_string)(std::string_view)) {
  place.help += ": " + choices;
  return {std::move(place), true,
          [field](const RunSpec& spec) -> std::string { return to_string(field(spec)); },
          [field, choices, from_string](RunSpec& spec, const std::string& text,
                                        const std::string& name) -> std::string {
            const auto value = from_string(text);
            if (!value) {
              return "unknown " + name + " '" + text + "' (want " + choices + ")";
            }
            field(spec) = *value;
            return {};
          }};
}

template <typename Field>
Setting verbatim(Place place, Field field) {
  return {std::move(place), true,
          [field](const RunSpec& spec) -> std::string { return field(spec); },
          [field](RunSpec& spec, const std::string& value, const std::string&) {
            field(spec) = value;
            return std::string();
          }};
}

/// Every run setting, one row each. to_text prints the rows with a key,
/// section by section. Flags register and apply in row order, so
/// --paper-arch comes before --batch-size, which overrides its batch of 100.
const std::vector<Setting>& settings() {
  static const std::vector<Setting> table = {
      one_of({"", "backend", "backend", "execution backend"},
             [](auto& s) -> auto& { return s.backend; },
             "sequential | threads | distributed | distributed-tcp", backend_from_string),
      count({"", "threads", "threads", "worker lanes for --backend threads"},
            [](auto& s) -> auto& { return s.threads; }, 1),
      Setting{{"", "dataset", "dataset", "training data: synthetic[:N[@SEED]] | idx:DIR"},
              true,
              [](const RunSpec& spec) { return spec.dataset.to_text(); },
              [](RunSpec& spec, const std::string& text, const std::string& name) {
                std::string problem;
                const auto dataset = DatasetSpec::parse(text, spec.dataset, &problem);
                if (!dataset) return name + ": " + problem;
                spec.dataset = *dataset;
                return std::string();
              }},
      count({"", nullptr, "samples",
             "shorthand for the synthetic dataset's sample count"},
            [](auto& s) -> auto& { return s.dataset.samples; }, 1),
      one_of({"", "cost_profile", "cost-profile", "virtual-time calibration"},
             [](auto& s) -> auto& { return s.cost_profile; }, "none | table3 | table4",
             cost_profile_from_string),
      one_of({"", "tensor_kernel", "tensor-kernel",
              "tensor microkernels (scalar: bit-exact reference; simd: packed,"
              " vectorized)"},
             [](auto& s) -> auto& { return s.tensor_kernel; }, "scalar | simd",
             tensor::kernel_kind_from_string),
      verbatim({"", "result_json", "result-json",
                "write the unified RunResult JSON to this file"},
               [](auto& s) -> auto& { return s.result_json; }),

      count({"observers", "eval_every", "eval-every",
             "compute IS/FID/mode coverage every N epochs (0 = off; needs a metric"
             " evaluator, attached by cellgan_run / table2_metrics)"},
            [](auto& s) -> auto& { return s.observers.eval_every; }),
      // FID fits a Gaussian per side; fewer than 2 samples has no covariance.
      count({"observers", "eval_samples", "eval-samples",
             "samples per generator / mixture in each metric evaluation"},
            [](auto& s) -> auto& { return s.observers.eval_samples; }, 2),
      verbatim({"observers", "telemetry", "telemetry",
                "append a JSONL training-event stream to this file"},
               [](auto& s) -> auto& { return s.observers.telemetry; }),
      count({"observers", "checkpoint_every", "checkpoint-every",
             "write a rolling checkpoint every N epochs (0 = off)"},
            [](auto& s) -> auto& { return s.observers.checkpoint_every; }),
      verbatim({"observers", "checkpoint_path", "checkpoint-path",
                "rolling checkpoint file for --checkpoint-every"},
               [](auto& s) -> auto& { return s.observers.checkpoint_path; }),

      Setting{{"config", nullptr, "paper-arch",
               "use the paper's full-size MLPs (Table I); upgrade-only"},
              false,
              [](const RunSpec& spec) -> std::string {
                return spec.config.arch == nn::GanArch::paper() ? "true" : "false";
              },
              [](RunSpec& spec, const std::string& text, const std::string& name) {
                bool paper = false;
                const std::string problem = parse_bool(text, name, paper);
                // Upgrade-only: programs whose defaults already use the paper
                // arch (with their own batch size) are untouched.
                if (paper && spec.config.arch != nn::GanArch::paper()) {
                  spec.config.arch = nn::GanArch::paper();
                  spec.config.batch_size = 100;
                }
                return problem;
              }},
      count({"config", "latent_dim", nullptr, ""},
            [](auto& s) -> auto& { return s.config.arch.latent_dim; }, 1),
      count({"config", "hidden_dim", nullptr, ""},
            [](auto& s) -> auto& { return s.config.arch.hidden_dim; }, 1),
      count({"config", "hidden_layers", nullptr, ""},
            [](auto& s) -> auto& { return s.config.arch.hidden_layers; }, 1),
      // Square images: IDX downsampling and the synthetic digits build
      // side x side pictures, and the digits need a side of at least 4.
      count({"config", "image_dim", nullptr, ""},
            [](auto& s) -> auto& { return s.config.arch.image_dim; }, 16,
            {[](double v) {
               const double side = std::round(std::sqrt(v));
               return side * side == v;
             },
             "must be a square"}),
      count({"config", "iterations", "iterations", "training epochs"},
            [](auto& s) -> auto& { return s.config.iterations; }),
      count({"config", "tournament_size", nullptr, ""},
            [](auto& s) -> auto& { return s.config.tournament_size; }, 1),
      Setting{{"config", nullptr, "grid", "grid side (grid x grid cells)"},
              false,
              [](const RunSpec& spec) { return std::to_string(spec.config.grid_rows); },
              [](RunSpec& spec, const std::string& text, const std::string& name) {
                const std::string problem =
                    parse_count(text, name, 1, spec.config.grid_rows);
                if (problem.empty()) spec.config.grid_cols = spec.config.grid_rows;
                return problem;
              }},
      count({"config", "grid_rows", nullptr, ""},
            [](auto& s) -> auto& { return s.config.grid_rows; }, 1),
      count({"config", "grid_cols", nullptr, ""},
            [](auto& s) -> auto& { return s.config.grid_cols; }, 1),
      real({"config", "mixture_mutation_scale", nullptr, ""},
           [](auto& s) -> auto& { return s.config.mixture_mutation_scale; }),
      real({"config", "initial_learning_rate", nullptr, ""},
           [](auto& s) -> auto& { return s.config.initial_learning_rate; },
           {[](double v) { return v > 0.0; }, "must be > 0"}),
      real({"config", "lr_mutation_sigma", nullptr, ""},
           [](auto& s) -> auto& { return s.config.lr_mutation_sigma; }),
      real({"config", "lr_mutation_probability", nullptr, ""},
           [](auto& s) -> auto& { return s.config.lr_mutation_probability; },
           {[](double v) { return v >= 0.0 && v <= 1.0; }, "must be in [0, 1]"}),
      count({"config", "batch_size", "batch-size", "training batch size"},
            [](auto& s) -> auto& { return s.config.batch_size; }, 1),
      count({"config", "discriminator_skip_steps", nullptr, ""},
            [](auto& s) -> auto& { return s.config.discriminator_skip_steps; }),
      count({"config", "batches_per_iteration", "batches-per-iteration",
             "gradient batches per epoch per cell"},
            [](auto& s) -> auto& { return s.config.batches_per_iteration; }, 1),
      count({"config", "fitness_eval_samples", nullptr, ""},
            [](auto& s) -> auto& { return s.config.fitness_eval_samples; }, 1),
      one_of({"config", "loss_mode", "loss", "objective"},
             [](auto& s) -> auto& { return s.config.loss_mode; },
             "heuristic | minimax | lsq | mustangs | wasserstein", loss_mode_from_string),
      one_of({"config", "exchange_mode", "exchange-transport",
              "genome transport (async-neighbors: cellular only)"},
             [](auto& s) -> auto& { return s.config.exchange_mode; },
             "allgather | async-neighbors", exchange_mode_from_string),
      one_of({"config", "exchange_policy", "exchange", "population-exchange policy"},
             [](auto& s) -> auto& { return s.config.exchange_policy; },
             "cellular | ltfb | gap", evolve::exchange_policy_from_string),
      count({"config", "exchange_every", "exchange-every",
             "ltfb tournament / gap rotation cadence in epochs"},
            [](auto& s) -> auto& { return s.config.exchange_every; }, 1),
      boolean({"config", "conditional", "conditional",
               "class-conditional training: one-hot labels ride the latent and"
               " image planes"},
              [](auto& s) -> auto& { return s.config.conditional; }),
      real({"config", "weight_clip", "weight-clip",
            "critic weight-clipping bound for --loss wasserstein"},
           [](auto& s) -> auto& { return s.config.weight_clip; },
           {[](double v) { return v > 0.0; }, "must be > 0"}),
      real({"config", "data_dieting_fraction", "dieting",
            "data-dieting fraction: each cell trains on this share of the data"},
           [](auto& s) -> auto& { return s.config.data_dieting_fraction; },
           {[](double v) { return v > 0.0 && v <= 1.0; }, "must be in (0, 1]"}),
      count({"config", "genome_record_every", nullptr, ""},
            [](auto& s) -> auto& { return s.config.genome_record_every; }),
      count({"config", "genome_record_every_b", nullptr, ""},
            [](auto& s) -> auto& { return s.config.genome_record_every_b; }),
      count({"config", "seed", "seed", "global training seed"},
            [](auto& s) -> auto& { return s.config.seed; }),
  };
  return table;
}

/// The checks that span settings, run once after every setting is applied.
std::string cross_check(const RunSpec& spec) {
  std::string problem;
  if (!validate_exchange(spec.config, &problem)) return problem;
  if (spec.observers.checkpoint_every > 0 && spec.observers.checkpoint_path.empty()) {
    return "--checkpoint-every needs --checkpoint-path (checkpoint_every needs "
           "checkpoint_path)";
  }
  return {};
}

// --- JSON text form ---------------------------------------------------------

std::string escaped(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// Reader for the JSON subset to_text writes: objects of strings and bare
/// tokens (numbers, true/false).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }
  const std::string& error() const { return error_; }

  bool peek(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool consume(char c) {
    if (!peek(c)) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool at_end() {
    skip_space();
    return pos_ >= text_.size();
  }

  bool read_string(std::string& out) {
    if (!peek('"')) return false;
    out.clear();
    for (++pos_; pos_ < text_.size() && text_[pos_] != '"'; ++pos_) {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out += text_[pos_];
    }
    if (pos_ >= text_.size()) return false;  // unterminated
    ++pos_;                                  // the closing quote
    return true;
  }

  /// A bare value: everything up to the next space or delimiter.
  bool read_token(std::string& out) {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) == 0 &&
           std::string_view(",:{}[]\"").find(text_[pos_]) == std::string_view::npos) {
      ++pos_;
    }
    out = text_.substr(start, pos_ - start);
    return !out.empty();
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Parse one `{"key": value, ...}` object, handing each key to `on_key`.
bool parse_object(JsonReader& reader,
                  const std::function<bool(const std::string&)>& on_key) {
  if (!reader.consume('{')) return false;
  if (reader.peek('}')) return reader.consume('}');
  for (;;) {
    std::string key;
    if (!reader.read_string(key)) return reader.fail("expected a key");
    if (!reader.consume(':') || !on_key(key)) return false;
    if (!reader.peek(',')) return reader.consume('}');
    reader.consume(',');
  }
}

/// Read the value of `key` in `section` and apply it to `spec`.
bool apply_key(JsonReader& reader, RunSpec& spec, std::string_view section,
               const std::string& key) {
  for (const Setting& setting : settings()) {
    if (setting.place.key == nullptr || setting.place.section != section ||
        key != setting.place.key) {
      continue;
    }
    std::string value;
    if (!(setting.quoted ? reader.read_string(value) : reader.read_token(value))) {
      return reader.fail(key + (setting.quoted ? " wants a JSON string"
                                               : " wants an unquoted value"));
    }
    const std::string problem = setting.parse(spec, value, key);
    return problem.empty() || reader.fail(problem);
  }
  return reader.fail("unknown " + std::string(section) + (section.empty() ? "" : " ") +
                     "key '" + key + "'");
}

/// Apply the settings in `text` on top of `spec`, without the cross checks.
bool apply_text(const std::string& text, RunSpec& spec, std::string* error) {
  JsonReader reader(text);
  const bool ok = parse_object(reader, [&](const std::string& key) {
    for (const char* section : {"observers", "config"}) {
      if (key != section) continue;
      return parse_object(reader, [&](const std::string& inner) {
        return apply_key(reader, spec, section, inner);
      });
    }
    return apply_key(reader, spec, "", key);
  }) && (reader.at_end() || reader.fail("text after the closing '}'"));
  if (!ok && error != nullptr) *error = reader.error();
  return ok;
}

bool read_file(const std::string& path, std::string& text, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  text = contents.str();
  return true;
}

}  // namespace

// --- RunSpec ----------------------------------------------------------------

void RunSpec::add_flags(common::CliParser& cli, const RunSpec& defaults) {
  cli.add_flag("spec", "", "load a RunSpec JSON file first; explicit flags override");
  for (const Setting& setting : settings()) {
    if (setting.place.flag == nullptr) continue;
    cli.add_flag(setting.place.flag, setting.print(defaults), setting.place.help);
  }
}

std::optional<RunSpec> RunSpec::from_cli(const common::CliParser& cli,
                                         const RunSpec& defaults) {
  RunSpec spec = defaults;
  if (cli.was_set("spec")) {
    // A spec file describes the whole run: it starts from RunSpec{}, not
    // from the program's defaults.
    spec = RunSpec{};
    std::string text, error;
    if (!read_file(cli.get("spec"), text, &error) || !apply_text(text, spec, &error)) {
      std::fprintf(stderr, "--spec %s: %s\n", cli.get("spec").c_str(), error.c_str());
      return std::nullopt;
    }
  }
  bool ok = true;
  for (const Setting& setting : settings()) {
    const char* flag = setting.place.flag;
    if (flag == nullptr || !cli.was_set(flag)) continue;
    const std::string problem =
        setting.parse(spec, cli.get(flag), std::string("--") + flag);
    if (!problem.empty()) {
      std::fprintf(stderr, "%s\n", problem.c_str());
      ok = false;
    }
  }
  if (ok) {
    const std::string problem = cross_check(spec);
    if (!problem.empty()) {
      std::fprintf(stderr, "%s\n", problem.c_str());
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
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

std::string RunSpec::to_text() const {
  const auto members = [this](std::string_view section, const char* indent) {
    std::string out;
    for (const Setting& setting : settings()) {
      if (setting.place.key == nullptr || setting.place.section != section) continue;
      const std::string value = setting.print(*this);
      out += std::string(out.empty() ? "" : ",\n") + indent + "\"" + setting.place.key +
             "\": " + (setting.quoted ? escaped(value) : value);
    }
    return out;
  };
  std::string out = "{\n" + members("", "  ");
  for (const char* section : {"observers", "config"}) {
    out += ",\n  \"" + std::string(section) + "\": {\n" + members(section, "    ") +
           "\n  }";
  }
  return out + "\n}\n";
}

std::optional<RunSpec> RunSpec::from_text(const std::string& text,
                                          std::string* error) {
  RunSpec spec;
  if (!apply_text(text, spec, error)) return std::nullopt;
  const std::string problem = cross_check(spec);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    return std::nullopt;
  }
  return spec;
}

std::optional<RunSpec> RunSpec::load(const std::string& path, std::string* error) {
  std::string text;
  if (!read_file(path, text, error)) return std::nullopt;
  return from_text(text, error);
}

bool RunSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << to_text();
  return out.good();
}

}  // namespace cellgan::core
