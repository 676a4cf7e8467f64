#include "core/comm_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "minimpi/runtime.hpp"

namespace cellgan::core {
namespace {

// A genome whose generator weights spell `tag`, so a test can tell which
// publication it was handed.
evolve::SharedGenome genome(const std::vector<std::uint8_t>& tag) {
  auto out = std::make_shared<evolve::CellGenome>();
  for (const std::uint8_t value : tag) out->generator_params.push_back(value);
  return out;
}

// The tag that genome() gave `g`; empty for a missing genome.
std::vector<std::uint8_t> tag(const evolve::SharedGenome& g) {
  std::vector<std::uint8_t> out;
  if (g == nullptr) return out;
  for (const float value : g->generator_params) {
    out.push_back(static_cast<std::uint8_t>(value));
  }
  return out;
}

// Every cell of a `cells`-cell grid, for exchanges that read them all.
std::vector<int> all_cells(int cells) {
  std::vector<int> out(static_cast<std::size_t>(cells));
  for (int cell = 0; cell < cells; ++cell) out[static_cast<std::size_t>(cell)] = cell;
  return out;
}

TEST(GenomeStoreTest, PublishIsStagedUntilFlip) {
  GenomeStore store(3);
  EXPECT_TRUE(tag(store.latest(0)).empty());
  store.publish(1, genome({1, 2, 3}));
  // Staged for the next epoch: invisible until the epoch barrier.
  EXPECT_TRUE(tag(store.latest(1)).empty());
  store.flip();
  EXPECT_EQ(tag(store.latest(1)), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(GenomeStoreTest, RepublishWithinEpochOverwritesStagedValue) {
  GenomeStore store(2);
  store.publish(1, genome({1, 2, 3}));
  store.publish(1, genome({4}));
  store.flip();
  EXPECT_EQ(tag(store.latest(1)), (std::vector<std::uint8_t>{4}));
}

TEST(GenomeStoreTest, ReadersKeepPreviousEpochWhilePublishing) {
  // The double buffer: a publish must never clobber the version the current
  // epoch still reads.
  GenomeStore store(1);
  store.publish(0, genome({1}));
  store.flip();
  store.publish(0, genome({2}));
  EXPECT_EQ(tag(store.latest(0)), (std::vector<std::uint8_t>{1}));
  store.flip();
  EXPECT_EQ(tag(store.latest(0)), (std::vector<std::uint8_t>{2}));
}

TEST(GenomeStoreTest, NewestAvailableSurvivesSkippedEpochs) {
  // A cell that stops publishing stays visible at its newest version — the
  // cellular "newest available neighbor genome" rule.
  GenomeStore store(1);
  store.publish(0, genome({7}));
  store.flip();
  store.flip();
  store.flip();
  EXPECT_EQ(tag(store.latest(0)), (std::vector<std::uint8_t>{7}));
}

TEST(GenomeStoreTest, EpochCounterAdvancesOnFlip) {
  GenomeStore store(1);
  EXPECT_EQ(store.epoch(), 0u);
  store.flip();
  store.flip();
  EXPECT_EQ(store.epoch(), 2u);
}

TEST(GenomeStoreDeathTest, OutOfRangeAborts) {
  GenomeStore store(2);
  EXPECT_DEATH(store.publish(2, genome({})), "precondition");
  EXPECT_DEATH((void)store.latest(-1), "precondition");
}

TEST(LocalCommManagerTest, ReturnsNeighborsOnly) {
  evolve::Grid grid(3, 3);
  GenomeStore store(grid.size());
  ExecContext context;
  // Pre-publish everyone's genome and cross the epoch barrier.
  for (int cell = 0; cell < grid.size(); ++cell) {
    store.publish(cell, genome({static_cast<std::uint8_t>(cell)}));
  }
  store.flip();
  LocalCommManager comm(store, grid, 4, context);
  comm.publish(genome({}));
  const auto gathered = comm.collect(grid.neighbors_of(4));
  ASSERT_EQ(gathered.size(), 9u);
  for (int cell = 0; cell < grid.size(); ++cell) {
    if (grid.is_neighbor(4, cell)) {
      ASSERT_EQ(tag(gathered[cell]).size(), 1u) << "cell " << cell;
      EXPECT_EQ(tag(gathered[cell])[0], static_cast<std::uint8_t>(cell));
    } else {
      EXPECT_TRUE(tag(gathered[cell]).empty()) << "cell " << cell;
    }
  }
}

TEST(LocalCommManagerTest, ExchangePublishesOwnGenomeForNextEpoch) {
  evolve::Grid grid(2, 2);
  GenomeStore store(grid.size());
  ExecContext context;
  LocalCommManager comm(store, grid, 0, context);
  const evolve::SharedGenome mine = genome({7, 7});
  comm.publish(mine);
  (void)comm.collect(grid.neighbors_of(0));
  store.flip();
  EXPECT_EQ(store.latest(0), mine);
}

TEST(LocalCommManagerTest, CollectSeesPreviousEpochOnly) {
  evolve::Grid grid(1, 2);  // two cells, mutual neighbors
  GenomeStore store(grid.size());
  ExecContext context;
  LocalCommManager a(store, grid, 0, context);
  LocalCommManager b(store, grid, 1, context);
  a.publish(genome({1}));
  // Same epoch: b must not see a's publish yet, whatever the cell order.
  EXPECT_TRUE(tag(b.collect()[0]).empty());
  store.flip();
  EXPECT_EQ(tag(b.collect()[0]), (std::vector<std::uint8_t>{1}));
}

TEST(LocalCommManagerTest, ChargesGatherWhenCostModelEnabled) {
  evolve::Grid grid(3, 3);
  GenomeStore store(grid.size());
  for (int cell = 0; cell < grid.size(); ++cell) {
    store.publish(cell, genome(std::vector<std::uint8_t>(100, 1)));
  }
  store.flip();
  WorkloadProbe probe;
  probe.train_flops = 1.0;
  probe.update_bytes = 1.0;
  probe.mutate_calls = 1.0;
  probe.genome_bytes = 100.0;
  const CostModel cost = CostModel::calibrated(CostProfile::table3(), probe);
  common::VirtualClock clock;
  common::Profiler profiler;
  ExecContext context;
  context.mode = ExecMode::SingleCore;
  context.grid_cells = 9;
  context.cost = &cost;
  context.clock = &clock;
  context.profiler = &profiler;

  LocalCommManager comm(store, grid, 0, context);
  comm.publish(genome(std::vector<std::uint8_t>(100, 2)));
  (void)comm.collect(grid.neighbors_of(0));
  EXPECT_GT(clock.now(), 0.0);
  EXPECT_GT(profiler.cost(common::routine::kGather).virtual_s, 0.0);
}

TEST(MpiCommManagerTest, ExchangeMatchesAllgatherSemantics) {
  minimpi::Runtime runtime(4);
  runtime.run([](minimpi::Comm& world) {
    MpiCommManager comm(world);
    const auto mine = genome({static_cast<std::uint8_t>(world.rank())});
    const auto gathered = comm.exchange(mine, all_cells(4), all_cells(4));
    ASSERT_EQ(gathered.size(), 4u);
    for (int cell = 0; cell < 4; ++cell) {
      ASSERT_EQ(tag(gathered[cell]).size(), 1u);
      EXPECT_EQ(tag(gathered[cell])[0], static_cast<std::uint8_t>(cell));
    }
  });
}

TEST(MpiCommManagerTest, RepeatedExchangesSeeLatestGenomes) {
  minimpi::Runtime runtime(3);
  runtime.run([](minimpi::Comm& world) {
    MpiCommManager comm(world);
    for (std::uint8_t round = 0; round < 5; ++round) {
      const auto mine = genome({static_cast<std::uint8_t>(world.rank() * 10 + round)});
      const auto gathered = comm.exchange(mine, all_cells(3), all_cells(3));
      for (int cell = 0; cell < 3; ++cell) {
        ASSERT_EQ(tag(gathered[cell])[0],
                  static_cast<std::uint8_t>(cell * 10 + round));
      }
    }
  });
}

TEST(MpiCommManagerTest, GenomesReachOnlyTheirReaders) {
  // 2x2 torus, cellular sources: each cell reads its two neighbors, so its
  // genome goes to those two and the diagonal cell gets an empty frame.
  evolve::Grid grid(2, 2);
  minimpi::Runtime runtime(4);
  runtime.run([&grid](minimpi::Comm& world) {
    MpiCommManager comm(world);
    const int me = world.rank();
    const auto& neighbors = grid.neighbors_of(me);
    const auto gathered = comm.exchange(
        genome({static_cast<std::uint8_t>(me)}), neighbors, neighbors);
    for (int cell = 0; cell < 4; ++cell) {
      if (grid.is_neighbor(me, cell)) {
        ASSERT_EQ(tag(gathered[cell]).size(), 1u) << "cell " << cell;
        EXPECT_EQ(tag(gathered[cell])[0], static_cast<std::uint8_t>(cell));
      } else {
        EXPECT_EQ(gathered[cell], nullptr) << "cell " << cell;
      }
    }
  });
}

}  // namespace
}  // namespace cellgan::core
