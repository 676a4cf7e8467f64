// Concurrency regression tests for the double-buffered GenomeStore: the
// parallel trainer hammers publish/latest from every worker thread while the
// epoch barrier flips buffers, so the store must stay internally consistent
// under arbitrary interleavings (run under the asan preset on every push).
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/comm_manager.hpp"

namespace cellgan::core {
namespace {

// Genome for `cell` at `version`: 64 generator weights, every one identical,
// so a reader can detect torn or mixed-version values.
evolve::SharedGenome payload(int cell, std::uint32_t version) {
  auto genome = std::make_shared<evolve::CellGenome>();
  genome->generator_params.assign(
      64, static_cast<float>((cell * 31 + version * 7) & 0xff));
  return genome;
}

TEST(GenomeStoreConcurrencyTest, PublishAndLatestFromManyThreads) {
  constexpr int kCells = 8;
  constexpr int kRounds = 50;
  GenomeStore store(kCells);
  std::atomic<bool> failed{false};

  // One writer+reader thread per cell: publish my genome, then read every
  // other cell. Readers must only ever observe untorn, single-version
  // payloads of the right length (or nothing).
  auto worker = [&](int cell) {
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      store.publish(cell, payload(cell, round));
      for (int other = 0; other < kCells; ++other) {
        const evolve::SharedGenome seen = store.latest(other);
        if (seen == nullptr) continue;
        if (seen->generator_params.size() != 64) {
          failed = true;
          return;
        }
        for (const float value : seen->generator_params) {
          if (value != seen->generator_params[0]) {  // mixed versions => torn read
            failed = true;
            return;
          }
        }
      }
    }
  };

  // A flipper thread drives epoch barriers concurrently with the traffic.
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop) {
      store.flip();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kCells);
  for (int cell = 0; cell < kCells; ++cell) workers.emplace_back(worker, cell);
  for (auto& t : workers) t.join();
  stop = true;
  flipper.join();

  EXPECT_FALSE(failed) << "torn or malformed genome observed";
}

TEST(GenomeStoreConcurrencyTest, EpochStagingHoldsUnderContention) {
  // With the flip under test control, concurrent publishes must never leak
  // into the epoch that is being read.
  constexpr int kThreads = 4;
  GenomeStore store(1);
  store.publish(0, payload(0, 0));
  store.flip();
  const evolve::SharedGenome visible = store.latest(0);

  std::vector<std::thread> writers;
  std::atomic<bool> leaked{false};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint32_t round = 1; round <= 100; ++round) {
        store.publish(0, payload(0, round * kThreads + t));
        if (store.latest(0) != visible) {
          leaked = true;
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_FALSE(leaked) << "same-epoch publish became visible before flip()";
  store.flip();
  EXPECT_NE(store.latest(0), visible);  // staged value surfaced at the barrier
}

}  // namespace
}  // namespace cellgan::core
