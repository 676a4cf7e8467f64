// The data-plane acceptance gate: --data-plane store must be bit-identical
// to the legacy loader on every backend — same seeds, same fitness
// trajectories, same genomes — including across the TCP deployment (the
// plane rides the config broadcast) and the mmap-backed IDX ingest path.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "core/distributed_trainer.hpp"
#include "core/session.hpp"
#include "core/workload.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/data_plane.hpp"
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

RunResult run_once(Backend backend, datastore::DataPlane plane,
                   const data::Dataset& train, const data::Dataset& test) {
  RunSpec spec;
  spec.backend = backend;
  spec.threads = 2;
  spec.config = parity_config();
  spec.config.data_plane = plane;
  Session session(spec);
  session.set_datasets(train, test);
  EXPECT_TRUE(session.prepare()) << session.error();
  return session.run();
}

TEST(DataPlaneParityTest, StoreMatchesLegacyOnEveryInProcessBackend) {
  const TrainingConfig config = parity_config();
  const auto train = make_matched_dataset(config, 64, 21);
  const auto test = make_matched_dataset(config, 16, 22);
  for (const Backend backend : kAllBackends) {
    const RunResult legacy =
        run_once(backend, datastore::DataPlane::kLegacy, train, test);
    const RunResult store =
        run_once(backend, datastore::DataPlane::kStore, train, test);
    EXPECT_EQ(legacy.g_fitnesses, store.g_fitnesses) << to_string(backend);
    EXPECT_EQ(legacy.d_fitnesses, store.d_fitnesses) << to_string(backend);
    EXPECT_EQ(legacy.best_cell, store.best_cell) << to_string(backend);
  }
}

TEST(DataPlaneParityTest, StorePlaneRidesTheTcpConfigBroadcast) {
  // A TCP world whose MASTER spec asks for the store plane: slaves learn the
  // plane from the config broadcast (they never see the CLI), and the whole
  // deployment must still match the in-process legacy run bit for bit.
  TrainingConfig config = parity_config();
  config.iterations = 2;
  const auto dataset = make_matched_dataset(config, 64, 21);

  TrainingConfig store_config = config;
  store_config.data_plane = datastore::DataPlane::kStore;
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
      outcomes[static_cast<std::size_t>(rank)] =
          run_distributed_tcp(world, store_config, dataset, CostModel{});
    });
  }
  for (auto& thread : threads) thread.join();

  const DistributedOutcome legacy = run_distributed(config, dataset, CostModel{});
  const auto& tcp_master = outcomes[0].master;
  ASSERT_EQ(tcp_master.results.size(), legacy.master.results.size());
  for (std::size_t cell = 0; cell < tcp_master.results.size(); ++cell) {
    EXPECT_EQ(tcp_master.results[cell].center.g_fitness,
              legacy.master.results[cell].center.g_fitness)
        << "cell " << cell;
    EXPECT_EQ(tcp_master.results[cell].center.generator_params,
              legacy.master.results[cell].center.generator_params)
        << "cell " << cell;
  }
  EXPECT_EQ(tcp_master.best_cell, legacy.master.best_cell);
}

TEST(DataPlaneParityTest, MmapIdxSessionMatchesLegacyAndPublishesTelemetry) {
  // Full-resolution IDX dataset on disk -> the Session binds the mmap-backed
  // store. The store-plane run must match the legacy run bit for bit AND
  // emit a data_store telemetry event reporting the live mapping.
  testsupport::TempDir tmp{"cellgan_plane"};
  const std::size_t train_n = 64, test_n = 8;
  const auto write_split = [&](const char* images_name, const char* labels_name,
                               std::size_t n, std::uint64_t seed) {
    const data::Dataset set = data::make_synthetic_mnist(n, seed);
    data::IdxImages images;
    images.count = static_cast<std::uint32_t>(n);
    images.rows = data::kImageSide;
    images.cols = data::kImageSide;
    images.pixels.resize(n * data::kImageDim);
    const auto floats = set.images.data();
    for (std::size_t i = 0; i < floats.size(); ++i) {
      const float v = (floats[i] + 1.0f) * 127.5f;
      images.pixels[i] =
          static_cast<std::uint8_t>(std::max(0.0f, std::min(255.0f, v)));
    }
    ASSERT_TRUE(data::write_idx_images(tmp.file(images_name).string(), images));
    std::vector<std::uint8_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<std::uint8_t>(set.labels[i]);
    }
    ASSERT_TRUE(data::write_idx_labels(tmp.file(labels_name).string(), labels));
  };
  write_split("train-images-idx3-ubyte", "train-labels-idx1-ubyte", train_n, 3);
  write_split("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", test_n, 4);

  const auto run_plane = [&](datastore::DataPlane plane,
                             const std::string& telemetry) {
    RunSpec spec;
    spec.backend = Backend::kSequential;
    spec.config = parity_config();
    spec.config.arch.image_dim = data::kImageDim;  // full-res: mmap bind path
    spec.config.iterations = 2;
    spec.config.data_plane = plane;
    spec.dataset.kind = DatasetSpec::Kind::kIdx;
    spec.dataset.idx_dir = tmp.path().string();
    spec.observers.telemetry = telemetry;
    Session session(spec);
    EXPECT_TRUE(session.prepare()) << session.error();
    return session.run();
  };

  const RunResult legacy =
      run_plane(datastore::DataPlane::kLegacy, std::string());
  const std::string telemetry_path = tmp.file("telemetry.jsonl").string();
  const RunResult store = run_plane(datastore::DataPlane::kStore, telemetry_path);
  EXPECT_EQ(legacy.g_fitnesses, store.g_fitnesses);
  EXPECT_EQ(legacy.d_fitnesses, store.d_fitnesses);

  std::ifstream telemetry(telemetry_path);
  ASSERT_TRUE(telemetry.good());
  std::stringstream buffer;
  buffer << telemetry.rdbuf();
  const std::string stream = buffer.str();
  EXPECT_NE(stream.find("\"event\":\"data_store\""), std::string::npos);
  EXPECT_NE(stream.find("\"bytes_mapped\":"), std::string::npos)
      << "store plane over IDX data should report the live mapping";
}

}  // namespace
}  // namespace cellgan::core
