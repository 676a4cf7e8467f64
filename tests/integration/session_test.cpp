// Backend parity of the core::Session facade: a Session run must be a pure
// wrapper — bit-identical to calling the direct entry points (one-lane
// and multi-lane ParallelTrainer, run_distributed) with the same
// configuration — plus the facade-only surfaces: IDX dataset
// resolution with clear errors, checkpoint interop and the RunResult JSON
// artifact.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_trainer.hpp"
#include "core/workload.hpp"
#include "data/idx.hpp"
#include "minimpi/bootstrap.hpp"
#include "testsupport/kind_guard.hpp"
#include "testsupport/sequential.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

RunSpec small_spec(Backend backend, int side, int iterations) {
  RunSpec spec;
  spec.backend = backend;
  spec.config = TrainingConfig::tiny();
  spec.config.grid_rows = spec.config.grid_cols = static_cast<std::uint32_t>(side);
  spec.config.iterations = static_cast<std::uint32_t>(iterations);
  spec.dataset.samples = 100;
  spec.dataset.seed = 21;
  return spec;
}

/// The legacy calibration the spec's table3 profile must reproduce.
CostModel legacy_table3_cost(const TrainingConfig& config,
                             const data::Dataset& dataset) {
  const WorkloadProbe probe = TrainerCore::measure_workload(config, dataset);
  CostProfile profile = CostProfile::table3();
  profile.reference_iterations = static_cast<double>(config.iterations);
  return CostModel::calibrated(profile, probe);
}

void expect_bit_identical(const RunResult& facade, const TrainOutcome& legacy) {
  ASSERT_EQ(facade.g_fitnesses.size(), legacy.g_fitnesses.size());
  for (std::size_t i = 0; i < legacy.g_fitnesses.size(); ++i) {
    EXPECT_EQ(facade.g_fitnesses[i], legacy.g_fitnesses[i]) << "cell " << i;
    EXPECT_EQ(facade.d_fitnesses[i], legacy.d_fitnesses[i]) << "cell " << i;
  }
  EXPECT_EQ(facade.best_cell, legacy.best_cell);
  EXPECT_EQ(facade.train_flops, legacy.train_flops);
  EXPECT_EQ(facade.virtual_s, legacy.virtual_s);
}

TEST(SessionTest, SequentialBackendBitIdenticalToLegacy) {
  const RunSpec spec = small_spec(Backend::kSequential, 2, 3);
  Session session(spec);
  const RunResult facade = session.run();

  const auto dataset = make_matched_dataset(spec.config, 100, 21);
  auto legacy = testsupport::sequential_trainer(spec.config, dataset);
  expect_bit_identical(facade, legacy.run());
  EXPECT_FALSE(facade.distributed());
  EXPECT_NE(session.trainer(), nullptr);
}

TEST(SessionTest, SequentialBackendBitIdenticalWithCostModel) {
  RunSpec spec = small_spec(Backend::kSequential, 2, 3);
  spec.cost_profile = CostProfileKind::kTable3;
  Session session(spec);
  const RunResult facade = session.run();

  const auto dataset = make_matched_dataset(spec.config, 100, 21);
  auto legacy = testsupport::sequential_trainer(spec.config, dataset,
                                               legacy_table3_cost(spec.config, dataset));
  expect_bit_identical(facade, legacy.run());
  EXPECT_GT(facade.virtual_s, 0.0);
}

TEST(SessionTest, ThreadsBackendBitIdenticalToLegacy) {
  RunSpec spec = small_spec(Backend::kThreads, 2, 3);
  spec.threads = 2;
  Session session(spec);
  const RunResult facade = session.run();

  const auto dataset = make_matched_dataset(spec.config, 100, 21);
  ParallelTrainer legacy(spec.config, dataset, 2);
  expect_bit_identical(facade, legacy.run());
}

TEST(SessionTest, DistributedBackendBitIdenticalToLegacy) {
  RunSpec spec = small_spec(Backend::kDistributed, 2, 2);
  spec.cost_profile = CostProfileKind::kTable3;
  Session session(spec);
  const RunResult facade = session.run();

  const auto dataset = make_matched_dataset(spec.config, 100, 21);
  const DistributedOutcome legacy = run_distributed(
      spec.config, dataset, legacy_table3_cost(spec.config, dataset));
  ASSERT_EQ(facade.g_fitnesses.size(), legacy.master.results.size());
  for (std::size_t i = 0; i < legacy.master.results.size(); ++i) {
    EXPECT_EQ(facade.g_fitnesses[i], legacy.master.results[i].center.g_fitness);
    EXPECT_EQ(facade.d_fitnesses[i], legacy.master.results[i].center.d_fitness);
  }
  EXPECT_EQ(facade.best_cell, legacy.master.best_cell);
  EXPECT_EQ(facade.virtual_s, legacy.virtual_makespan_s);
  EXPECT_TRUE(facade.distributed());
  EXPECT_EQ(facade.ranks.size(), legacy.ranks.size());
  EXPECT_EQ(facade.cell_results.size(), 4u);
  EXPECT_EQ(session.trainer(), nullptr);
}

TEST(SessionTest, AllBackendsAgreeOnFitnesses) {
  // The cross-backend guarantee behind the whole facade: same spec, same
  // final fitness trajectory, whichever vehicle executed it — under either
  // tensor kernel kind.
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    SCOPED_TRACE(tensor::to_string(kind));
    const testsupport::KindGuard guard(kind);
    RunSpec base = small_spec(Backend::kSequential, 2, 2);
    base.tensor_kernel = kind;
    Session sequential(base);
    const RunResult reference = sequential.run();
    for (const Backend backend : {Backend::kThreads, Backend::kDistributed}) {
      RunSpec spec = base;
      spec.backend = backend;
      Session session(spec);
      const RunResult outcome = session.run();
      ASSERT_EQ(outcome.g_fitnesses.size(), reference.g_fitnesses.size());
      for (std::size_t i = 0; i < reference.g_fitnesses.size(); ++i) {
        EXPECT_EQ(outcome.g_fitnesses[i], reference.g_fitnesses[i])
            << to_string(backend) << " cell " << i;
      }
      EXPECT_EQ(outcome.best_cell, reference.best_cell) << to_string(backend);
    }
  }
}

TEST(SessionTest, SampleBestWorksOnEveryBackend) {
  for (const Backend backend : kAllBackends) {
    RunSpec spec = small_spec(backend, 2, 2);
    Session session(spec);
    const RunResult outcome = session.run();
    const tensor::Tensor samples = session.sample_best(outcome, 3, spec.config.seed);
    EXPECT_EQ(samples.rows(), 3u) << to_string(backend);
    EXPECT_EQ(samples.cols(), spec.config.arch.image_dim) << to_string(backend);
  }
}

TEST(SessionTest, ExternalDatasetsMatchResolvedOnes) {
  // Sweep benchmarks resolve once and share via set_datasets; results must
  // equal a session that resolved the same spec itself, with no copy made.
  const RunSpec spec = small_spec(Backend::kSequential, 2, 2);
  Session resolved(spec);
  const RunResult reference = resolved.run();

  const auto train = make_matched_dataset(spec.config, 100, 21);
  const auto test = make_matched_dataset(spec.config, 16, 22);
  Session external(spec);
  external.set_datasets(train, test);
  const RunResult outcome = external.run();
  ASSERT_EQ(outcome.g_fitnesses.size(), reference.g_fitnesses.size());
  for (std::size_t i = 0; i < reference.g_fitnesses.size(); ++i) {
    EXPECT_EQ(outcome.g_fitnesses[i], reference.g_fitnesses[i]);
  }
  EXPECT_EQ(external.train_set().labels().data(), train.labels.data());
  EXPECT_FALSE(external.train_set().file_backed());
  EXPECT_EQ(&external.test_set(), &test);
}

TEST(SessionTest, CheckpointInteropWithLegacyTrainer) {
  const RunSpec spec = small_spec(Backend::kSequential, 2, 2);
  Session original(spec);
  (void)original.run();
  const Checkpoint snapshot = original.checkpoint();

  Session resumed(spec);
  ASSERT_TRUE(resumed.restore(snapshot));
  const RunResult facade = resumed.run();

  const auto dataset = make_matched_dataset(spec.config, 100, 21);
  auto legacy = testsupport::sequential_trainer(spec.config, dataset);
  legacy.restore(snapshot);
  expect_bit_identical(facade, legacy.run());
}

TEST(SessionTest, IdxDatasetResolvesAndDownsamples) {
  testsupport::TempDir dir("session_idx");
  // Write a tiny 28x28 IDX quartet; the tiny architecture (64 pixels) makes
  // the Session downsample to 8x8 on load.
  const auto write_pair = [&](const char* image_name, const char* label_name,
                              std::uint32_t count) {
    data::IdxImages images;
    images.count = count;
    images.rows = images.cols = 28;
    images.pixels.assign(count * 28 * 28, 128);
    ASSERT_TRUE(data::write_idx_images(dir.file(image_name).string(), images));
    std::vector<std::uint8_t> labels(count, 3);
    ASSERT_TRUE(data::write_idx_labels(dir.file(label_name).string(), labels));
  };
  write_pair("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 32);
  write_pair("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 8);

  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session session(spec);
  ASSERT_TRUE(session.prepare()) << session.error();
  EXPECT_EQ(session.train_set().samples(), 32u);
  EXPECT_EQ(session.test_set().size(), 8u);
  EXPECT_EQ(session.train_set().sample_dim(), spec.config.arch.image_dim);
  // Downsampled floats replace the mapping; no file stays mapped.
  EXPECT_FALSE(session.train_set().file_backed());
  const RunResult outcome = session.run();
  EXPECT_EQ(outcome.g_fitnesses.size(), 4u);
}

TEST(SessionTest, MissingIdxFilesGiveClearError) {
  testsupport::TempDir dir("session_idx_missing");
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session session(spec);
  EXPECT_FALSE(session.prepare());
  EXPECT_NE(session.error().find("train-images-idx3-ubyte"), std::string::npos)
      << session.error();
  EXPECT_NE(session.error().find(dir.path().string()), std::string::npos);
  // prepare() stays failed (no half-initialized state).
  EXPECT_FALSE(session.prepare());
}

/// Write one 28x28 IDX image/label pair into `dir`: `images` uniform-gray
/// images and `labels` labels (a count mismatch makes the pair malformed).
void write_idx_pair(const testsupport::TempDir& dir, const std::string& prefix,
                    std::uint32_t images, std::size_t labels) {
  data::IdxImages pixels;
  pixels.count = images;
  pixels.rows = pixels.cols = 28;
  pixels.pixels.assign(images * 28 * 28, 128);
  ASSERT_TRUE(
      data::write_idx_images(dir.file(prefix + "-images-idx3-ubyte").string(), pixels));
  ASSERT_TRUE(data::write_idx_labels(dir.file(prefix + "-labels-idx1-ubyte").string(),
                                     std::vector<std::uint8_t>(labels, 3)));
}

TEST(SessionTest, TestSplitLoadsOnFirstUse) {
  testsupport::TempDir dir("session_idx_lazy");
  write_idx_pair(dir, "train", 32, 32);
  write_idx_pair(dir, "t10k", 8, 7);  // one label short: unreadable
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session session(spec);
  ASSERT_TRUE(session.prepare()) << session.error();
  EXPECT_EQ(session.train_set().samples(), 32u);
  try {
    (void)session.test_set();
    ADD_FAILURE() << "a malformed test pair loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("test pair"), std::string::npos) << e.what();
  }

  // A missing test file is still a prepare-time error.
  std::filesystem::remove(dir.file("t10k-labels-idx1-ubyte"));
  Session missing(spec);
  EXPECT_FALSE(missing.prepare());
  EXPECT_NE(missing.error().find("t10k-labels-idx1-ubyte"), std::string::npos)
      << missing.error();
}

TEST(SessionTest, IdxLabelsOutsideTheClassesAreNamed) {
  // Every 7th training label is 200: prepare() names the labels file and the
  // first bad index, on a conditional run (which indexes one-hot rows by
  // label) and an unconditional one alike.
  testsupport::TempDir dir("session_idx_labels");
  write_idx_pair(dir, "t10k", 8, 8);
  data::IdxImages pixels;
  pixels.count = 64;
  pixels.rows = pixels.cols = 28;
  pixels.pixels.assign(64 * 28 * 28, 128);
  ASSERT_TRUE(
      data::write_idx_images(dir.file("train-images-idx3-ubyte").string(), pixels));
  std::vector<std::uint8_t> labels(64, 3);
  for (std::size_t i = 6; i < labels.size(); i += 7) labels[i] = 200;
  const std::string labels_path = dir.file("train-labels-idx1-ubyte").string();
  ASSERT_TRUE(data::write_idx_labels(labels_path, labels));
  for (const bool conditional : {true, false}) {
    for (const std::size_t image_dim : {data::kImageDim, std::size_t{64}}) {
      RunSpec spec = small_spec(Backend::kSequential, 2, 1);
      spec.config.conditional = conditional ? 1 : 0;
      spec.config.arch.image_dim = image_dim;
      spec.dataset.kind = DatasetSpec::Kind::kIdx;
      spec.dataset.idx_dir = dir.path().string();
      Session session(spec);
      EXPECT_FALSE(session.prepare());
      EXPECT_NE(session.error().find(labels_path), std::string::npos) << session.error();
      EXPECT_NE(session.error().find("label 200 at index 6"), std::string::npos)
          << session.error();
    }
  }

  // The test split, read at its first use, names its own file.
  const std::string test_labels = dir.file("t10k-labels-idx1-ubyte").string();
  ASSERT_TRUE(data::write_idx_labels(labels_path, std::vector<std::uint8_t>(64, 3)));
  ASSERT_TRUE(data::write_idx_labels(test_labels, {1, 2, 3, 4, 5, 10, 6, 7}));
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session session(spec);
  ASSERT_TRUE(session.prepare()) << session.error();
  try {
    (void)session.test_set();
    ADD_FAILURE() << "a test label outside 0-9 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(test_labels), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("label 10 at index 5"), std::string::npos)
        << e.what();
  }
}

TEST(SessionTest, TrainingSetSmallerThanOneBatchIsNamed) {
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.dataset.samples = spec.config.batch_size / 2;
  Session synthetic(spec);
  EXPECT_FALSE(synthetic.prepare());
  EXPECT_NE(synthetic.error().find("fewer than one batch"), std::string::npos)
      << synthetic.error();

  // A short IDX training file reads the same way.
  testsupport::TempDir dir("session_idx_short");
  write_idx_pair(dir, "train", 4, 4);
  write_idx_pair(dir, "t10k", 4, 4);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session idx(spec);
  EXPECT_FALSE(idx.prepare());
  EXPECT_NE(idx.error().find("fewer than one batch"), std::string::npos) << idx.error();
}

/// The CELLGAN_* environment of `rank` in a five-rank TCP world, for the
/// guard's scope.
class WorldEnvGuard {
 public:
  explicit WorldEnvGuard(int rank) {
    ::setenv(minimpi::kEnvRank, std::to_string(rank).c_str(), 1);
    ::setenv(minimpi::kEnvWorld, "5", 1);
    ::setenv(minimpi::kEnvEndpoint, "127.0.0.1:1", 1);
  }
  ~WorldEnvGuard() {
    ::unsetenv(minimpi::kEnvRank);
    ::unsetenv(minimpi::kEnvWorld);
    ::unsetenv(minimpi::kEnvEndpoint);
  }
  WorldEnvGuard(const WorldEnvGuard&) = delete;
  WorldEnvGuard& operator=(const WorldEnvGuard&) = delete;
};

TEST(SessionTest, TcpMasterRankValidatesIdxWithoutAFloatCopy) {
  // Rank 0 hosts the master, which never trains: on a downsampled IDX run it
  // checks the pair like every rank, then keeps no rows. A slave rank, and
  // rank 0 when a cost profile is calibrated on the set, build the floats.
  testsupport::TempDir dir("session_idx_master");
  write_idx_pair(dir, "train", 32, 32);
  write_idx_pair(dir, "t10k", 8, 8);
  RunSpec spec = small_spec(Backend::kDistributedTcp, 2, 1);
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  ASSERT_LT(spec.config.arch.image_dim, data::kImageDim);
  const auto prepared_rows = [&spec](int rank) -> std::size_t {
    const WorldEnvGuard env(rank);
    Session session(spec);
    EXPECT_TRUE(session.prepare()) << session.error();
    EXPECT_FALSE(session.train_set().file_backed());
    return session.train_set().samples();
  };
  EXPECT_EQ(prepared_rows(0), 0u);
  EXPECT_EQ(prepared_rows(1), 32u);
  spec.cost_profile = CostProfileKind::kTable3;
  EXPECT_EQ(prepared_rows(0), 32u);
  spec.cost_profile = CostProfileKind::kNone;

  // A bad pair still fails prepare() on rank 0, with the named errors.
  const WorldEnvGuard env(0);
  write_idx_pair(dir, "train", 32, 31);  // one label short
  Session short_labels(spec);
  EXPECT_FALSE(short_labels.prepare());
  EXPECT_NE(short_labels.error().find("train-labels-idx1-ubyte"), std::string::npos)
      << short_labels.error();
  write_idx_pair(dir, "train", 4, 4);
  Session short_set(spec);
  EXPECT_FALSE(short_set.prepare());
  EXPECT_NE(short_set.error().find("fewer than one batch"), std::string::npos)
      << short_set.error();
}

TEST(SessionTest, IdxRefusesUpscaling) {
  testsupport::TempDir dir("session_idx_big");
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.config.arch.image_dim = 1024;  // 32x32 > MNIST's 28x28
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  Session session(spec);
  EXPECT_FALSE(session.prepare());
  EXPECT_NE(session.error().find("synthetic"), std::string::npos)
      << session.error();
}

TEST(SessionTest, ResultJsonWritten) {
  testsupport::TempDir dir("session_json");
  RunSpec spec = small_spec(Backend::kSequential, 2, 1);
  spec.result_json = dir.file("result.json").string();
  Session session(spec);
  (void)session.run();
  std::ifstream in(spec.result_json);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"backend\": \"sequential\""), std::string::npos);
  EXPECT_NE(text.str().find("\"g_fitnesses\""), std::string::npos);
  EXPECT_NE(text.str().find("\"spec\""), std::string::npos);
}

}  // namespace
}  // namespace cellgan::core
