// RunSpec: flag parsing over common::cli, the JSON text form, and the exact
// args -> spec -> text -> spec round trip the reproducible-run workflow
// relies on.
#include "core/run_spec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

/// Parse `args` through add_flags/from_cli with `defaults`.
std::optional<RunSpec> parse_args(std::vector<const char*> args,
                                  const RunSpec& defaults) {
  args.insert(args.begin(), "prog");
  common::CliParser cli("test");
  RunSpec::add_flags(cli, defaults);
  if (!cli.parse(static_cast<int>(args.size()), args.data())) return std::nullopt;
  return RunSpec::from_cli(cli, defaults);
}

TEST(RunSpecTest, BackendNamesRoundTrip) {
  for (const Backend backend : kAllBackends) {
    const auto parsed = backend_from_string(to_string(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(backend_from_string("gpu").has_value());
  EXPECT_EQ(backend_from_string("seq"), Backend::kSequential);
  EXPECT_EQ(backend_from_string("parallel"), Backend::kThreads);
  EXPECT_EQ(backend_from_string("distributed-tcp"), Backend::kDistributedTcp);
  EXPECT_EQ(backend_from_string("tcp"), Backend::kDistributedTcp);
  EXPECT_STREQ(to_string(Backend::kDistributedTcp), "distributed-tcp");
}

TEST(RunSpecTest, UnknownBackendRejectedAtParseTimeWithRegistry) {
  // The parse-time gate: an unknown backend name fails in from_text — not
  // later inside Session::run — and the diagnostic lists every backend so
  // the caller can fix the spec without reading code.
  std::string error;
  EXPECT_FALSE(RunSpec::from_text("{\"backend\": \"warp\"}", &error).has_value());
  EXPECT_NE(error.find("unknown backend 'warp'"), std::string::npos) << error;
  EXPECT_NE(error.find("(want "), std::string::npos) << error;
  for (const char* name : {"sequential", "threads", "distributed", "distributed-tcp"}) {
    EXPECT_NE(error.find(name), std::string::npos) << "missing " << name;
  }
  // Every backend parses, including the multi-process one.
  const auto spec = RunSpec::from_text("{\"backend\": \"distributed-tcp\"}", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->backend, Backend::kDistributedTcp);
}

TEST(RunSpecTest, DatasetSpecParses) {
  const auto synthetic = DatasetSpec::parse("synthetic");
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->kind, DatasetSpec::Kind::kSynthetic);

  const auto sized = DatasetSpec::parse("synthetic:1234");
  ASSERT_TRUE(sized.has_value());
  EXPECT_EQ(sized->samples, 1234u);

  const auto seeded = DatasetSpec::parse("synthetic:64@99");
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(seeded->samples, 64u);
  EXPECT_EQ(seeded->seed, 99u);
  EXPECT_EQ(seeded->to_text(), "synthetic:64@99");

  const auto idx = DatasetSpec::parse("idx:/data/mnist");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(idx->kind, DatasetSpec::Kind::kIdx);
  EXPECT_EQ(idx->idx_dir, "/data/mnist");
  EXPECT_EQ(idx->to_text(), "idx:/data/mnist");

  std::string error;
  EXPECT_FALSE(DatasetSpec::parse("mnist", &error).has_value());
  EXPECT_NE(error.find("unknown dataset"), std::string::npos);
  EXPECT_FALSE(DatasetSpec::parse("idx:", &error).has_value());
  EXPECT_FALSE(DatasetSpec::parse("synthetic:zero", &error).has_value());
  EXPECT_FALSE(DatasetSpec::parse("synthetic:64@x", &error).has_value());
  // Negative counts must be rejected, not wrapped to 2^64 by strtoull.
  EXPECT_FALSE(DatasetSpec::parse("synthetic:-5", &error).has_value());
  EXPECT_FALSE(DatasetSpec::parse("synthetic:64@-1", &error).has_value());
  EXPECT_FALSE(DatasetSpec::parse("synthetic:0", &error).has_value());
}

TEST(RunSpecTest, BareSyntheticDatasetKeepsProgramDefaults) {
  // `--dataset synthetic` must not reset a program's sample count/seed.
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  defaults.dataset.samples = 1200;
  defaults.dataset.seed = 42;
  const auto spec = parse_args({"--dataset", "synthetic"}, defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->dataset.kind, DatasetSpec::Kind::kSynthetic);
  EXPECT_EQ(spec->dataset.samples, 1200u);
  EXPECT_EQ(spec->dataset.seed, 42u);

  // Switching back from an idx base clears the directory too.
  defaults.dataset.kind = DatasetSpec::Kind::kIdx;
  defaults.dataset.idx_dir = "/data/mnist";
  const auto back = parse_args({"--dataset", "synthetic"}, defaults);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dataset.kind, DatasetSpec::Kind::kSynthetic);
  EXPECT_TRUE(back->dataset.idx_dir.empty());
}

TEST(RunSpecTest, FlagsOverrideDefaults) {
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  const auto spec = parse_args(
      {"--backend", "threads", "--threads", "4", "--grid", "3", "--iterations",
       "17", "--dataset", "synthetic:128@5", "--seed", "7", "--loss", "mustangs",
       "--exchange", "cellular", "--exchange-transport", "async-neighbors",
       "--dieting", "0.5", "--cost-profile", "table4", "--result-json", "out.json"},
      defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->backend, Backend::kThreads);
  EXPECT_EQ(spec->threads, 4u);
  EXPECT_EQ(spec->config.grid_rows, 3u);
  EXPECT_EQ(spec->config.grid_cols, 3u);
  EXPECT_EQ(spec->config.iterations, 17u);
  EXPECT_EQ(spec->dataset.samples, 128u);
  EXPECT_EQ(spec->dataset.seed, 5u);
  EXPECT_EQ(spec->config.seed, 7u);
  EXPECT_EQ(spec->config.loss_mode, LossMode::kMustangs);
  EXPECT_EQ(spec->config.exchange_mode, ExchangeMode::kAsyncNeighbors);
  EXPECT_DOUBLE_EQ(spec->config.data_dieting_fraction, 0.5);
  EXPECT_EQ(spec->cost_profile, CostProfileKind::kTable4);
  EXPECT_EQ(spec->result_json, "out.json");
}

TEST(RunSpecTest, UnsetFlagsPreserveCustomDefaults) {
  // A program may pre-configure state no flag can express (a custom
  // architecture); flags the user did not pass must not clobber it.
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  defaults.config.arch.image_dim = 1024;
  defaults.config.arch.hidden_dim = 96;
  defaults.config.batches_per_iteration = 2;
  const auto spec = parse_args({"--iterations", "5"}, defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->config.iterations, 5u);
  EXPECT_EQ(spec->config.arch.image_dim, 1024u);
  EXPECT_EQ(spec->config.arch.hidden_dim, 96u);
  EXPECT_EQ(spec->config.batches_per_iteration, 2u);
}

TEST(RunSpecTest, PaperArchFlag) {
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  const auto spec = parse_args({"--paper-arch", "true"}, defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->config.arch, nn::GanArch::paper());
  EXPECT_EQ(spec->config.batch_size, 100u);

  // An explicit --batch-size wins over the paper-arch batch default.
  const auto sized =
      parse_args({"--paper-arch", "true", "--batch-size", "37"}, defaults);
  ASSERT_TRUE(sized.has_value());
  EXPECT_EQ(sized->config.batch_size, 37u);

  // Upgrade-only: a program already defaulting to the paper arch (with its
  // own batch size) is untouched by a redundant --paper-arch true.
  RunSpec paper_defaults;
  paper_defaults.config = TrainingConfig::tiny();
  paper_defaults.config.arch = nn::GanArch::paper();
  paper_defaults.config.batch_size = 50;
  const auto noop = parse_args({"--paper-arch", "true"}, paper_defaults);
  ASSERT_TRUE(noop.has_value());
  EXPECT_EQ(noop->config.batch_size, 50u);
}

TEST(RunSpecTest, DataPlaneFlagAndKeyAreUnknown) {
  // Every run reads its batches through the store, so nothing selects a
  // plane: the flag and the key are gone, and the text form names neither.
  RunSpec defaults;
  EXPECT_FALSE(parse_args({"--data-plane", "store"}, defaults).has_value());
  std::string error;
  EXPECT_FALSE(
      RunSpec::from_text("{\"config\": {\"data_plane\": \"legacy\"}}", &error).has_value());
  EXPECT_NE(error.find("unknown config key 'data_plane'"), std::string::npos) << error;
  EXPECT_EQ(defaults.to_text().find("data_plane"), std::string::npos);
}

/// One bad value, offered both as a flag and as a spec-file key.
struct BadValue {
  const char* flag;
  const char* section;  ///< "" for a top-level key
  const char* key;
  const char* value;
};

/// `{"key": value}`, nested in the row's section unless that is the top level.
std::string spec_text(const BadValue& row) {
  const std::string entry = std::string("{\"") + row.key + "\": " + row.value + "}";
  if (*row.section == '\0') return entry;
  return std::string("{\"") + row.section + "\": " + entry + "}";
}

TEST(RunSpecTest, BadValuesAreRejected) {
  RunSpec defaults;
  // Flags and spec files check the same bounds and parse numbers the same
  // way: every row fails through both, and the spec error names the key.
  const BadValue rows[] = {
      {"batch-size", "config", "batch_size", "0"},
      {"grid", "config", "grid_rows", "0"},
      {"dieting", "config", "data_dieting_fraction", "0"},
      {"dieting", "config", "data_dieting_fraction", "1.5"},
      {"weight-clip", "config", "weight_clip", "0"},
      {"weight-clip", "config", "weight_clip", "-0.5"},
      {"eval-samples", "observers", "eval_samples", "1"},
      {"exchange-every", "config", "exchange_every", "0"},
      {"threads", "", "threads", "0"},
      // Malformed numbers: no prefix is read, nothing saturates or wraps.
      {"iterations", "config", "iterations", "5x"},
      {"seed", "config", "seed", "abc"},
      {"grid", "config", "grid_rows", "2.7"},
      {"weight-clip", "config", "weight_clip", "0.5abc"},
      {"threads", "", "threads", "99999999999999999999"},
      {"conditional", "config", "conditional", "maybe"},
  };
  for (const BadValue& row : rows) {
    const std::string flag = std::string("--") + row.flag;
    SCOPED_TRACE(flag + " " + row.value);
    EXPECT_FALSE(parse_args({flag.c_str(), row.value}, defaults).has_value());
    std::string error;
    EXPECT_FALSE(RunSpec::from_text(spec_text(row), &error).has_value());
    EXPECT_NE(error.find(row.key), std::string::npos) << error;
  }

  EXPECT_FALSE(parse_args({"--backend", "gpu"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--loss", "hinge"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--exchange", "ring"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--exchange-transport", "ring"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--exchange-every", "0"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--weight-clip", "0"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--weight-clip", "-0.5"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--weight-clip", "nan"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--dataset", "nope"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--cost-profile", "table9"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--threads", "0"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--grid", "0"}, defaults).has_value());
  // Negative integers must be rejected before any unsigned cast wraps them.
  EXPECT_FALSE(parse_args({"--threads", "-1"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--samples", "-1"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--iterations", "-3"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--seed", "-1"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--batch-size", "0"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--dieting", "0"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--dieting", "1.5"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--dieting", "nan"}, defaults).has_value());
}

TEST(RunSpecTest, AutoSelectionValuesAreRejected) {
  // Policies and kernels are always named explicitly: `auto` is not a value
  // of either, in flags or in the JSON text form.
  RunSpec defaults;
  EXPECT_FALSE(parse_args({"--exchange", "auto"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--tensor-kernel", "auto"}, defaults).has_value());
  std::string error;
  EXPECT_FALSE(RunSpec::from_text("{\"config\": {\"exchange_policy\": \"auto\"}}", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown exchange_policy 'auto'"), std::string::npos) << error;
  EXPECT_FALSE(RunSpec::from_text("{\"tensor_kernel\": \"auto\"}", &error).has_value());
  EXPECT_NE(error.find("unknown tensor_kernel 'auto'"), std::string::npos) << error;

  // The defaults print as the concrete names they run.
  const std::string text = defaults.to_text();
  EXPECT_NE(text.find("\"tensor_kernel\": \"simd\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"exchange_policy\": \"cellular\""), std::string::npos) << text;
}

TEST(RunSpecTest, ExchangePolicyFlagsParse) {
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  EXPECT_EQ(defaults.config.exchange_policy, evolve::ExchangePolicyKind::kCellular);
  const auto spec = parse_args(
      {"--exchange", "ltfb", "--exchange-every", "3", "--loss", "wasserstein",
       "--conditional", "true", "--weight-clip", "0.05"},
      defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->config.exchange_policy, evolve::ExchangePolicyKind::kLtfb);
  EXPECT_EQ(spec->config.exchange_every, 3u);
  EXPECT_EQ(spec->config.loss_mode, LossMode::kWasserstein);
  EXPECT_EQ(spec->config.conditional, 1u);
  EXPECT_DOUBLE_EQ(spec->config.weight_clip, 0.05);

  const auto gap = parse_args({"--exchange", "gap"}, defaults);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->config.exchange_policy, evolve::ExchangePolicyKind::kGap);

  // The JSON text form round-trips every new field.
  std::string error;
  const auto reparsed = RunSpec::from_text(spec->to_text(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, *spec);
}

TEST(RunSpecTest, UnknownExchangePolicyListsRegisteredNames) {
  // Same UX as the backend-name validation: the from_text diagnostic names
  // what IS registered.
  std::string error;
  EXPECT_FALSE(RunSpec::from_text("{\"config\": {\"exchange_policy\": \"ring\"}}",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("unknown exchange_policy 'ring'"), std::string::npos)
      << error;
  for (const char* name : {"cellular", "ltfb", "gap"}) {
    EXPECT_NE(error.find(name), std::string::npos) << "missing " << name;
  }
}

TEST(RunSpecTest, NonCellularPolicyRejectsAsyncTransport) {
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  // ltfb and gap need non-neighbor genomes the async transport never moves.
  EXPECT_FALSE(parse_args({"--exchange", "ltfb", "--exchange-transport",
                           "async-neighbors"},
                          defaults)
                   .has_value());
  EXPECT_FALSE(parse_args({"--exchange", "gap", "--exchange-transport", "async"},
                          defaults)
                   .has_value());
  // Cellular stays fine on async.
  const auto ok = parse_args({"--exchange", "cellular", "--exchange-transport",
                              "async-neighbors"},
                             defaults);
  EXPECT_TRUE(ok.has_value());

  TrainingConfig config = TrainingConfig::tiny();
  config.exchange_policy = evolve::ExchangePolicyKind::kGap;
  config.exchange_mode = ExchangeMode::kAsyncNeighbors;
  std::string error;
  EXPECT_FALSE(validate_exchange(config, &error));
  EXPECT_NE(error.find("gap"), std::string::npos) << error;
  EXPECT_NE(error.find("allgather"), std::string::npos) << error;
}

TEST(RunSpecTest, ObserverFlagsParse) {
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  const auto spec = parse_args(
      {"--eval-every", "5", "--eval-samples", "96", "--telemetry", "run.jsonl",
       "--checkpoint-every", "10", "--checkpoint-path", "grid.ckpt"},
      defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->observers.eval_every, 5u);
  EXPECT_EQ(spec->observers.eval_samples, 96u);
  EXPECT_EQ(spec->observers.telemetry, "run.jsonl");
  EXPECT_EQ(spec->observers.checkpoint_every, 10u);
  EXPECT_EQ(spec->observers.checkpoint_path, "grid.ckpt");

  // A checkpoint cadence without a file to write is a flag error.
  EXPECT_FALSE(parse_args({"--checkpoint-every", "4"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--eval-every", "-2"}, defaults).has_value());
  EXPECT_FALSE(parse_args({"--eval-samples", "0"}, defaults).has_value());
}

TEST(RunSpecTest, ObserverSpecTextRoundTrip) {
  RunSpec spec;
  spec.config = TrainingConfig::tiny();
  spec.config.genome_record_every = 3;
  spec.observers.eval_every = 6;
  spec.observers.eval_samples = 512;
  spec.observers.telemetry = "telemetry.jsonl";
  spec.observers.checkpoint_every = 12;
  spec.observers.checkpoint_path = "rolling.ckpt";

  const std::string text = spec.to_text();
  std::string error;
  const auto reparsed = RunSpec::from_text(text, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->observers, spec.observers);
  EXPECT_EQ(reparsed->config.genome_record_every, 3u);
}

TEST(RunSpecTest, ArgsToTextToSpecRoundTrip) {
  // The reproducibility contract: parse args, serialize, parse the text —
  // the two specs must be exactly equal (operator==, covering every field).
  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  const auto spec = parse_args(
      {"--backend", "distributed", "--grid", "3", "--iterations", "21",
       "--dataset", "idx:/data/mnist", "--loss", "lsq", "--exchange", "cellular",
       "--exchange-transport", "async-neighbors", "--dieting", "0.25", "--seed",
       "12345",
       "--cost-profile", "table3", "--batch-size", "37", "--paper-arch", "true"},
      defaults);
  ASSERT_TRUE(spec.has_value());

  const std::string text = spec->to_text();
  std::string error;
  const auto reparsed = RunSpec::from_text(text, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, *spec);
}

TEST(RunSpecTest, DefaultSpecTextRoundTrip) {
  const RunSpec spec;
  const auto reparsed = RunSpec::from_text(spec.to_text());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, spec);
}

TEST(RunSpecTest, FromTextRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(RunSpec::from_text("", &error).has_value());
  EXPECT_FALSE(RunSpec::from_text("{\"backend\": \"warp\"}", &error).has_value());
  EXPECT_NE(error.find("unknown backend"), std::string::npos);
  EXPECT_FALSE(RunSpec::from_text("{\"no_such_key\": 1}", &error).has_value());
  EXPECT_FALSE(RunSpec::from_text("{\"threads\": }", &error).has_value());
  EXPECT_FALSE(RunSpec::from_text("{\"threads\": -1}", &error).has_value());
  EXPECT_FALSE(
      RunSpec::from_text("{\"config\": {\"iterations\": -2}}", &error).has_value());
  EXPECT_FALSE(
      RunSpec::from_text("{\"config\": {\"bogus\": 3}}", &error).has_value());
  // Spec-only settings whose zero aborts the run or trains to NaN.
  for (const char* key : {"tournament_size", "grid_cols", "fitness_eval_samples"}) {
    const std::string text = std::string("{\"config\": {\"") + key + "\": 0}}";
    EXPECT_FALSE(RunSpec::from_text(text, &error).has_value()) << key;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

TEST(RunSpecTest, SpecOnlyValuesOutsideTheirBoundsAreRejected) {
  // Each of these aborted a run or trained without complaint before its row
  // had a bound.
  const std::pair<const char*, const char*> rows[] = {
      {"initial_learning_rate", "-1"},  {"initial_learning_rate", "0"},
      {"image_dim", "10"},              {"image_dim", "0"},
      {"image_dim", "9"},               {"lr_mutation_probability", "7"},
      {"lr_mutation_probability", "-0.5"}, {"latent_dim", "0"},
      {"hidden_dim", "0"},              {"hidden_layers", "0"},
  };
  for (const auto& [key, value] : rows) {
    SCOPED_TRACE(std::string(key) + " " + value);
    const std::string text = std::string("{\"config\": {\"") + key + "\": " + value + "}}";
    std::string error;
    EXPECT_FALSE(RunSpec::from_text(text, &error).has_value());
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
  // The bounds admit the values every shipped configuration uses.
  const std::string text =
      R"({"config": {"image_dim": 64, "initial_learning_rate": 0.0002,)"
      R"( "lr_mutation_probability": 1, "hidden_layers": 1}})";
  std::string error;
  const auto spec = RunSpec::from_text(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.arch.image_dim, 64u);
  EXPECT_EQ(spec->config.arch.hidden_layers, 1u);
}

TEST(RunSpecTest, EarlierSpecFilesStillLoad) {
  // A spec file in the earlier layout: another key order and `conditional`
  // as a count. It loads into an equal spec; the deleted
  // population_per_cell key is a named error.
  const std::string earlier = R"({
  "backend": "sequential",
  "threads": 2,
  "dataset": "synthetic:600@7",
  "cost_profile": "none",
  "tensor_kernel": "simd",
  "observers": {
    "eval_every": 0,
    "eval_samples": 256,
    "telemetry": "",
    "checkpoint_every": 0,
    "checkpoint_path": ""
  },
  "result_json": "",
  "config": {
    "latent_dim": 8,
    "hidden_dim": 16,
    "hidden_layers": 2,
    "image_dim": 64,
    "iterations": 8,
    "tournament_size": 2,
    "grid_rows": 2,
    "grid_cols": 2,
    "mixture_mutation_scale": 0.01,
    "initial_learning_rate": 0.00020000000000000001,
    "lr_mutation_sigma": 0.0001,
    "lr_mutation_probability": 0.5,
    "batch_size": 16,
    "discriminator_skip_steps": 1,
    "batches_per_iteration": 1,
    "fitness_eval_samples": 16,
    "loss_mode": "heuristic",
    "exchange_mode": "allgather",
    "exchange_policy": "cellular",
    "exchange_every": 1,
    "conditional": 0,
    "weight_clip": 0.01,
    "data_dieting_fraction": 1,
    "genome_record_every": 0,
    "genome_record_every_b": 0,
    "seed": 42
  }
})";
  RunSpec expected;
  expected.config = TrainingConfig::tiny();
  expected.config.iterations = 8;
  std::string error;
  const auto loaded = RunSpec::from_text(earlier, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, expected);

  std::string with_population = earlier;
  with_population.insert(with_population.find("\"tournament_size\""),
                         "\"population_per_cell\": 1,\n    ");
  EXPECT_FALSE(RunSpec::from_text(with_population, &error).has_value());
  EXPECT_NE(error.find("unknown config key 'population_per_cell'"), std::string::npos)
      << error;
}

TEST(RunSpecTest, SaveAndLoadFile) {
  testsupport::TempDir dir("run_spec");
  RunSpec spec;
  spec.backend = Backend::kThreads;
  spec.threads = 3;
  spec.config = TrainingConfig::tiny();
  spec.config.iterations = 9;
  const std::string path = dir.file("spec.json").string();
  ASSERT_TRUE(spec.save(path));
  std::string error;
  const auto loaded = RunSpec::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, spec);

  EXPECT_FALSE(RunSpec::load(dir.file("missing.json").string(), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(RunSpecTest, SpecFileFlagLoadsAndExplicitFlagsWin) {
  testsupport::TempDir dir("run_spec_flag");
  RunSpec saved;
  saved.backend = Backend::kDistributed;
  saved.config = TrainingConfig::tiny();
  saved.config.iterations = 33;
  saved.config.grid_rows = saved.config.grid_cols = 3;
  const std::string path = dir.file("spec.json").string();
  ASSERT_TRUE(saved.save(path));

  RunSpec defaults;
  defaults.config = TrainingConfig::tiny();
  const auto spec = parse_args(
      {"--spec", path.c_str(), "--iterations", "5"}, defaults);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->backend, Backend::kDistributed);  // from the file
  EXPECT_EQ(spec->config.grid_rows, 3u);            // from the file
  EXPECT_EQ(spec->config.iterations, 5u);           // explicit flag wins
}

}  // namespace
}  // namespace cellgan::core
