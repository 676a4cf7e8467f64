// IDX parity: a Session that resolves `idx:DIR` must train exactly like a
// Session handed the same quartet as floats (data::load_mnist_idx, then
// set_datasets) — same fitnesses, same best cell — on every in-process
// backend, at full resolution and downsampled to the tiny architecture,
// plain, conditional and dieting. The TCP case runs real ranks over loopback,
// and the telemetry case checks the data_store record an IDX run publishes.
// In the test names, "store" is the run that reads the IDX files and
// "legacy" the run over a float copy of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "core/distributed_trainer.hpp"
#include "core/session.hpp"
#include "core/workload.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/sample_store.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

TrainingConfig parity_config() {
  TrainingConfig config = TrainingConfig::tiny();
  config.grid_rows = 1;
  config.grid_cols = 2;
  config.iterations = 3;
  return config;
}

/// Write an MNIST-shaped IDX quartet (synthetic digits as bytes) into `dir`.
void write_quartet(const testsupport::TempDir& dir, std::size_t train_n,
                   std::size_t test_n) {
  const auto write_split = [&](const char* prefix, std::size_t n, std::uint64_t seed) {
    const data::Dataset set = data::make_synthetic_mnist(n, seed);
    data::IdxImages images;
    images.count = static_cast<std::uint32_t>(n);
    images.rows = data::kImageSide;
    images.cols = data::kImageSide;
    images.pixels.resize(n * data::kImageDim);
    const auto floats = set.images.data();
    for (std::size_t i = 0; i < floats.size(); ++i) {
      const float v = (floats[i] + 1.0f) * 127.5f;
      images.pixels[i] = static_cast<std::uint8_t>(std::max(0.0f, std::min(255.0f, v)));
    }
    const std::string stem = dir.file(prefix).string();
    ASSERT_TRUE(data::write_idx_images(stem + "-images-idx3-ubyte", images));
    std::vector<std::uint8_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<std::uint8_t>(set.labels[i]);
    ASSERT_TRUE(data::write_idx_labels(stem + "-labels-idx1-ubyte", labels));
  };
  write_split("train", train_n, 3);
  write_split("t10k", test_n, 4);
}

RunSpec idx_spec(Backend backend, const TrainingConfig& config,
                 const testsupport::TempDir& dir) {
  RunSpec spec;
  spec.backend = backend;
  spec.threads = 2;
  spec.config = config;
  spec.dataset.kind = DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = dir.path().string();
  return spec;
}

TEST(DataPlaneParityTest, StoreMatchesLegacyOnEveryInProcessBackend) {
  testsupport::TempDir dir("cellgan_idx_parity");
  write_quartet(dir, 64, 8);
  const auto loaded = data::load_mnist_idx(dir.path().string());
  ASSERT_TRUE(loaded.has_value());

  struct Variant {
    const char* name;
    bool conditional;
    double dieting;
  };
  const Variant variants[] = {
      {"plain", false, 1.0}, {"conditional", true, 1.0}, {"dieting 0.5", false, 0.5}};
  for (const std::size_t image_dim : {data::kImageDim, std::size_t{64}}) {
    // The float side downsamples the loaded quartet itself, as the ledger does.
    const std::size_t side = image_dim == data::kImageDim ? data::kImageSide : 8;
    const data::Dataset train = data::downsampled(loaded->first, side);
    const data::Dataset test = data::downsampled(loaded->second, side);
    for (const Variant& variant : variants) {
      TrainingConfig config = parity_config();
      config.arch.image_dim = image_dim;
      config.conditional = variant.conditional ? 1 : 0;
      config.data_dieting_fraction = variant.dieting;
      for (const Backend backend : kAllBackends) {
        const std::string label = std::string(to_string(backend)) + ", " +
                                  variant.name + ", image_dim " +
                                  std::to_string(image_dim);
        Session idx(idx_spec(backend, config, dir));
        ASSERT_TRUE(idx.prepare()) << idx.error();
        const RunResult store = idx.run();

        RunSpec float_spec = idx_spec(backend, config, dir);
        float_spec.dataset = DatasetSpec{};
        Session floats(float_spec);
        floats.set_datasets(train, test);
        ASSERT_TRUE(floats.prepare()) << floats.error();
        const RunResult legacy = floats.run();

        ASSERT_EQ(store.g_fitnesses.size(), config.grid_cells()) << label;
        EXPECT_EQ(store.g_fitnesses, legacy.g_fitnesses) << label;
        EXPECT_EQ(store.d_fitnesses, legacy.d_fitnesses) << label;
        EXPECT_EQ(store.best_cell, legacy.best_cell) << label;
      }
    }
  }
}

TEST(DataPlaneParityTest, StorePlaneRidesTheTcpConfigBroadcast) {
  // A TCP world (threads standing in for rank processes, over loopback)
  // whose ranks each map the training file themselves, as cellgan_launch's
  // processes do; slaves learn the config from the master's broadcast. The
  // deployment must match the in-process run over the loaded floats.
  testsupport::TempDir dir("cellgan_idx_tcp");
  write_quartet(dir, 64, 8);
  const auto loaded = data::load_mnist_idx(dir.path().string());
  ASSERT_TRUE(loaded.has_value());
  TrainingConfig config = parity_config();
  config.arch.image_dim = data::kImageDim;
  config.iterations = 2;

  const int world_size = static_cast<int>(config.grid_cells()) + 1;
  std::vector<DistributedOutcome> outcomes(static_cast<std::size_t>(world_size));
  std::promise<std::string> endpoint_promise;
  std::shared_future<std::string> endpoint = endpoint_promise.get_future().share();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      TcpWorld world;
      world.world_size = world_size;
      world.rank = rank;
      world.timeout_s = 60.0;
      if (rank == 0) {
        world.rendezvous = "127.0.0.1:0";
        world.on_listening = [&endpoint_promise](const std::string& actual) {
          endpoint_promise.set_value(actual);
        };
      } else {
        world.rendezvous = endpoint.get();
      }
      const datastore::SampleStore mapped = datastore::SampleStore::map_idx(
          dir.file("train-images-idx3-ubyte").string(),
          dir.file("train-labels-idx1-ubyte").string());
      outcomes[static_cast<std::size_t>(rank)] =
          run_distributed_tcp(world, config, mapped, CostModel{});
    });
  }
  for (auto& thread : threads) thread.join();

  const DistributedOutcome floats = run_distributed(config, loaded->first, CostModel{});
  const auto& tcp_master = outcomes[0].master;
  ASSERT_EQ(tcp_master.results.size(), floats.master.results.size());
  for (std::size_t cell = 0; cell < tcp_master.results.size(); ++cell) {
    EXPECT_EQ(tcp_master.results[cell].center.g_fitness,
              floats.master.results[cell].center.g_fitness)
        << "cell " << cell;
    EXPECT_EQ(tcp_master.results[cell].center.generator_params,
              floats.master.results[cell].center.generator_params)
        << "cell " << cell;
  }
  EXPECT_EQ(tcp_master.best_cell, floats.master.best_cell);
}

TEST(DataPlaneParityTest, MmapIdxSessionMatchesLegacyAndPublishesTelemetry) {
  // Two full-resolution IDX runs in one process each match the float run and
  // each publish a data_store record reporting their own mapping of the
  // training images: the whole file, header included, not a process total.
  testsupport::TempDir dir("cellgan_idx_telemetry");
  write_quartet(dir, 64, 8);
  TrainingConfig config = parity_config();
  config.arch.image_dim = data::kImageDim;
  config.iterations = 2;

  const auto loaded = data::load_mnist_idx(dir.path().string());
  ASSERT_TRUE(loaded.has_value());
  RunSpec float_spec = idx_spec(Backend::kSequential, config, dir);
  float_spec.dataset = DatasetSpec{};
  Session floats(float_spec);
  floats.set_datasets(loaded->first, loaded->second);
  const RunResult legacy = floats.run();

  const std::string expected =
      "\"event\":\"data_store\",\"bytes_mapped\":" +
      std::to_string(std::filesystem::file_size(dir.file("train-images-idx3-ubyte")));
  for (const char* name : {"first.jsonl", "second.jsonl"}) {
    RunSpec spec = idx_spec(Backend::kSequential, config, dir);
    spec.observers.telemetry = dir.file(name).string();
    Session session(spec);
    ASSERT_TRUE(session.prepare()) << session.error();
    const RunResult store = session.run();
    EXPECT_EQ(store.g_fitnesses, legacy.g_fitnesses) << name;
    EXPECT_EQ(store.d_fitnesses, legacy.d_fitnesses) << name;

    std::ifstream telemetry(spec.observers.telemetry);
    ASSERT_TRUE(telemetry.good());
    std::stringstream buffer;
    buffer << telemetry.rdbuf();
    EXPECT_NE(buffer.str().find(expected), std::string::npos) << name << ": "
                                                              << buffer.str();
  }
}

}  // namespace
}  // namespace cellgan::core
