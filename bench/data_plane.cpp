// Data-plane sweep: legacy DataLoader vs shared SampleStore across grid
// sizes and lane counts, emitting BENCH_datastore.json.
//
// Two measurements per point, both over the same mmap-backed IDX dataset
// (written once from the synthetic generator so the bench is hermetic):
//
//   * session: full training runs on the threads backend with
//     --data-plane legacy vs store — the end-to-end wall clock and the
//     bit-parity gate (`"parity": true` is asserted by ci/check.sh --bench);
//   * feed: lane-parallel batch-draw throughput with a consumer-side touch
//     of every float — isolates the data plane from GEMM noise;
//   * ingest: time from IDX file on disk to the first staged minibatch plus
//     the per-process float heap each plane needs — the store mmaps the byte
//     plane and stages one batch, the legacy loader must read and normalize
//     the whole file first.
//
// Both planes stage batches synchronously on the drawing lane. The JSON
// records the machine's core count, which bounds the lane sweep.
//
//   data_plane [--samples N] [--iterations N] [--lanes LIST] [--grids LIST]
//              [--feed-epochs N] [--json PATH]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "data/dataloader.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/sample_store.hpp"
#include "datastore/stats.hpp"

namespace {

using namespace cellgan;
using Clock = std::chrono::steady_clock;

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Write a synthetic MNIST-shaped IDX quartet under `dir`.
bool write_idx_dataset(const std::string& dir, std::size_t train_n,
                       std::size_t test_n, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const auto write_split = [&](const char* images_name, const char* labels_name,
                               std::size_t n, std::uint64_t split_seed) {
    const data::Dataset set = data::make_synthetic_mnist(n, split_seed);
    data::IdxImages images;
    images.count = static_cast<std::uint32_t>(n);
    images.rows = data::kImageSide;
    images.cols = data::kImageSide;
    images.pixels.resize(n * data::kImageDim);
    const auto floats = set.images.data();
    for (std::size_t i = 0; i < floats.size(); ++i) {
      const float v = (floats[i] + 1.0f) * 127.5f;
      images.pixels[i] = static_cast<std::uint8_t>(
          v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v));
    }
    std::vector<std::uint8_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<std::uint8_t>(set.labels[i]);
    }
    return data::write_idx_images(dir + "/" + images_name, images) &&
           data::write_idx_labels(dir + "/" + labels_name, labels);
  };
  return write_split("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     train_n, seed) &&
         write_split("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", test_n,
                     seed + 1);
}

struct SessionRow {
  std::string grid;
  std::size_t lanes = 0;
  std::string plane;
  double wall_s = 0.0;
};

struct FeedRow {
  std::size_t lanes = 0;
  std::string plane;
  double batches_per_s = 0.0;
};

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    if (v >= 1) out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) out.push_back(1);
  return out;
}

/// Lane-parallel feed throughput: every lane draws every batch of `epochs`
/// epochs from its own feed and touches every float (the consumer-side work
/// training does). Returns aggregate batches per second.
double feed_throughput(bool store_plane, std::size_t lanes, std::size_t epochs,
                       const data::Dataset& dataset,
                       const std::shared_ptr<datastore::SampleStore>& store,
                       std::size_t batch_size) {
  std::atomic<double> sink{0.0};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  std::atomic<std::size_t> batches{0};
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      common::Rng rng(97 + lane);
      std::unique_ptr<datastore::BatchFeed> feed;
      if (store_plane) {
        feed = std::make_unique<datastore::StoreFeed>(store, batch_size);
      } else {
        feed = std::make_unique<datastore::LegacyFeed>(dataset, batch_size);
      }
      double local = 0.0;
      std::size_t drawn = 0;
      for (std::size_t e = 0; e < epochs; ++e) {
        feed->reshuffle(rng);
        for (std::size_t b = 0; b < feed->batches_per_epoch(); ++b) {
          const tensor::Tensor batch = feed->batch(b);
          for (const float v : batch.data()) local += v;  // consumer touch
          ++drawn;
        }
      }
      sink.store(sink.load() + local);
      batches.fetch_add(drawn);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("  feed %-6s lanes=%zu: %8.1f batches/s (sink %.1f)\n",
              store_plane ? "store" : "legacy", lanes,
              static_cast<double>(batches.load()) / seconds, sink.load());
  return static_cast<double>(batches.load()) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Data-plane sweep: legacy loader vs shared SampleStore across "
      "grids and lanes; writes BENCH_datastore.json");
  cli.add_flag("samples", "2000", "IDX training samples to generate");
  cli.add_flag("iterations", "4", "training epochs per session point");
  cli.add_flag("lanes", "1,2,4", "comma-separated worker lane counts");
  cli.add_flag("grids", "2,4", "comma-separated grid cell counts (2=1x2, 4=2x2)");
  cli.add_flag("feed-epochs", "30", "epochs per lane in the feed microbench");
  cli.add_flag("json", "BENCH_datastore.json", "output JSON path (empty = skip)");
  if (!cli.parse(argc, argv)) return 1;

  const std::size_t samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto lanes_list = parse_list(cli.get("lanes"));
  const auto grid_list = parse_list(cli.get("grids"));
  const std::string idx_dir = "data_plane_idx";
  if (!write_idx_dataset(idx_dir, samples, samples / 6 + 8, 5)) {
    std::fprintf(stderr, "data_plane: cannot write IDX dataset under %s\n",
                 idx_dir.c_str());
    return 1;
  }

  // --- end-to-end session sweep -------------------------------------------
  bool parity = true;
  std::vector<SessionRow> session_rows;
  for (const std::size_t cells : grid_list) {
    for (const std::size_t lanes : lanes_list) {
      std::vector<double> fitness[2];
      for (const bool store_plane : {false, true}) {
        core::RunSpec spec;
        spec.backend = core::Backend::kThreads;
        spec.threads = lanes;
        spec.dataset.kind = core::DatasetSpec::Kind::kIdx;
        spec.dataset.idx_dir = idx_dir;
        spec.config = core::TrainingConfig::tiny();
        spec.config.arch.image_dim = data::kImageDim;  // full-res: mmap path
        spec.config.grid_rows = cells == 2 ? 1 : 2;
        spec.config.grid_cols = 2;
        spec.config.batch_size = 100;
        spec.config.fitness_eval_samples = 100;
        spec.config.batches_per_iteration = 4;
        spec.config.iterations = static_cast<std::uint32_t>(cli.get_int("iterations"));
        spec.config.data_plane = store_plane ? datastore::DataPlane::kStore
                                             : datastore::DataPlane::kLegacy;
        core::Session session(spec);
        if (!session.prepare()) {
          std::fprintf(stderr, "data_plane: %s\n", session.error().c_str());
          return 1;
        }
        const core::RunResult result = session.run();
        fitness[store_plane ? 1 : 0] = result.g_fitnesses;
        SessionRow row;
        row.grid = cells == 2 ? "1x2" : "2x2";
        row.lanes = lanes;
        row.plane = store_plane ? "store" : "legacy";
        row.wall_s = result.wall_s;
        session_rows.push_back(row);
        std::printf("session grid=%s lanes=%zu plane=%-6s wall=%.3fs\n",
                    row.grid.c_str(), lanes, row.plane.c_str(), row.wall_s);
      }
      if (fitness[0] != fitness[1]) {
        parity = false;
        std::fprintf(stderr,
                     "data_plane: PARITY VIOLATION at %zu cells, %zu lanes\n",
                     cells, lanes);
      }
    }
  }

  // --- feed-level throughput ----------------------------------------------
  auto loaded = data::load_mnist_idx(idx_dir);
  if (!loaded) return 1;
  const data::Dataset train = std::move(loaded->first);
  auto store = datastore::SampleStore::map_idx(idx_dir + "/train-images-idx3-ubyte");
  const std::size_t feed_epochs =
      static_cast<std::size_t>(cli.get_int("feed-epochs"));
  std::vector<FeedRow> feed_rows;
  for (const std::size_t lanes : lanes_list) {
    for (const bool store_plane : {false, true}) {
      FeedRow row;
      row.lanes = lanes;
      row.plane = store_plane ? "store" : "legacy";
      row.batches_per_s =
          feed_throughput(store_plane, lanes, feed_epochs, train, store, 100);
      feed_rows.push_back(row);
    }
  }

  // --- ingest latency + footprint -----------------------------------------
  // Legacy: read + normalize the whole file into a float heap, then gather
  // the first batch. Store: mmap, stage one batch straight from the bytes.
  double legacy_first_ms = 0.0, store_first_ms = 0.0;
  {
    const auto t0 = Clock::now();
    auto pair = data::load_mnist_idx(idx_dir);
    if (!pair) return 1;
    data::DataLoader loader(pair->first, 100);
    const tensor::Tensor first = loader.batch(0);
    legacy_first_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() +
        first.data()[0] * 0.0;
  }
  {
    const auto t0 = Clock::now();
    auto mapped =
        datastore::SampleStore::map_idx(idx_dir + "/train-images-idx3-ubyte");
    datastore::StoreFeed feed(mapped, 100);  // identity order, like a fresh loader
    const tensor::Tensor first = feed.batch(0);
    store_first_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() +
        first.data()[0] * 0.0;
  }
  const std::size_t legacy_heap = samples * data::kImageDim * sizeof(float);
  std::printf("ingest legacy: %.2f ms to first batch, %zu heap bytes\n",
              legacy_first_ms, legacy_heap);
  std::printf("ingest store:  %.2f ms to first batch, 0 heap bytes (mmap)\n",
              store_first_ms);

  const datastore::StatsSnapshot stats = datastore::stats().snapshot();
  std::printf("parity: %s\n", parity ? "true" : "FALSE");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"parity\": " << (parity ? "true" : "false") << ",\n";
    out << "  \"samples\": " << samples << ",\n";
    out << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n";
    out << "  \"ingest\": {\n";
    out << "    \"legacy_first_batch_ms\": " << format_double(legacy_first_ms)
        << ",\n";
    out << "    \"store_first_batch_ms\": " << format_double(store_first_ms)
        << ",\n";
    out << "    \"legacy_heap_bytes\": " << legacy_heap << ",\n";
    out << "    \"store_heap_bytes\": 0\n  },\n";
    out << "  \"bytes_mapped\": " << stats.bytes_mapped << ",\n";
    out << "  \"session\": [\n";
    for (std::size_t i = 0; i < session_rows.size(); ++i) {
      const SessionRow& r = session_rows[i];
      out << "    {\"grid\": \"" << r.grid << "\", \"lanes\": " << r.lanes
          << ", \"plane\": \"" << r.plane << "\", \"wall_s\": "
          << format_double(r.wall_s) << "}"
          << (i + 1 < session_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"feed\": [\n";
    for (std::size_t i = 0; i < feed_rows.size(); ++i) {
      const FeedRow& r = feed_rows[i];
      out << "    {\"lanes\": " << r.lanes << ", \"plane\": \"" << r.plane
          << "\", \"batches_per_s\": " << format_double(r.batches_per_s) << "}"
          << (i + 1 < feed_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "data_plane: cannot write %s\n", json_path.c_str());
      return 1;
    }
    file << out.str();
    std::printf("wrote %s\n", json_path.c_str());
  }
  return parity ? 0 : 2;
}
