#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "minimpi/comm.hpp"
#include "minimpi/runtime.hpp"

namespace cellgan::minimpi {
namespace {

/// All collective semantics must hold for any communicator size.
class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BarrierSynchronizesAll) {
  const int n = GetParam();
  Runtime runtime(n);
  std::atomic<int> before{0}, after{0};
  runtime.run([&](Comm& world) {
    before.fetch_add(1);
    world.barrier();
    // Everyone must have incremented `before` by the time any rank passes.
    EXPECT_EQ(before.load(), n);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), n);
}

TEST_P(CollectiveSweep, BcastDeliversRootPayload) {
  const int n = GetParam();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    std::vector<std::uint8_t> data;
    if (world.rank() == 0) data = {9, 8, 7};
    world.bcast(data, 0);
    EXPECT_EQ(data, (std::vector<std::uint8_t>{9, 8, 7}));
  });
}

TEST_P(CollectiveSweep, BcastFromNonZeroRoot) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    std::vector<std::uint8_t> data;
    if (world.rank() == 1) data = {5};
    world.bcast(data, 1);
    EXPECT_EQ(data, (std::vector<std::uint8_t>{5}));
  });
}

TEST_P(CollectiveSweep, GatherCollectsByRankAtRoot) {
  const int n = GetParam();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    const std::uint8_t mine = static_cast<std::uint8_t>(world.rank() * 3);
    const auto gathered = world.gather(std::span<const std::uint8_t>(&mine, 1), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(gathered[r].size(), 1u);
        EXPECT_EQ(gathered[r][0], static_cast<std::uint8_t>(r * 3));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllgatherGivesEveryoneEverything) {
  const int n = GetParam();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    const std::uint8_t mine = static_cast<std::uint8_t>(world.rank() + 1);
    const auto all = world.allgather(std::span<const std::uint8_t>(&mine, 1));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[r].size(), 1u);
      EXPECT_EQ(all[r][0], static_cast<std::uint8_t>(r + 1));
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumAndMax) {
  // The reductions are an allgather of doubles followed by a local fold.
  const int n = GetParam();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    const auto gather_doubles = [&world](double value) {
      std::vector<double> values;
      for (const auto& payload : world.allgather(std::span(
               reinterpret_cast<const std::uint8_t*>(&value), sizeof(value)))) {
        double v = 0.0;
        EXPECT_EQ(payload.size(), sizeof(v));
        std::memcpy(&v, payload.data(), sizeof(v));
        values.push_back(v);
      }
      return values;
    };
    const auto ones_to_n = gather_doubles(static_cast<double>(world.rank() + 1));
    EXPECT_DOUBLE_EQ(std::accumulate(ones_to_n.begin(), ones_to_n.end(), 0.0),
                     n * (n + 1) / 2.0);
    const auto ranks = gather_doubles(static_cast<double>(world.rank()));
    EXPECT_DOUBLE_EQ(*std::max_element(ranks.begin(), ranks.end()),
                     static_cast<double>(n - 1));
  });
}

TEST_P(CollectiveSweep, BackToBackCollectivesDoNotInterfere) {
  const int n = GetParam();
  Runtime runtime(n);
  runtime.run([&](Comm& world) {
    for (int round = 0; round < 5; ++round) {
      const std::uint8_t mine = static_cast<std::uint8_t>(world.rank() * 10 + round);
      const auto all = world.allgather(std::span<const std::uint8_t>(&mine, 1));
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(all[r][0], static_cast<std::uint8_t>(r * 10 + round))
            << "round " << round;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 5, 9, 17));

TEST(CollectiveTest, LargePayloadAllgather) {
  Runtime runtime(4);
  runtime.run([](Comm& world) {
    std::vector<std::uint8_t> big(100000,
                                  static_cast<std::uint8_t>(world.rank()));
    const auto all = world.allgather(big);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all[r].size(), 100000u);
      EXPECT_EQ(all[r][99999], static_cast<std::uint8_t>(r));
    }
  });
}

/// A net model whose transfer costs are large next to its latency, so a
/// wrong charge or stamp moves every clock it reaches.
NetModelConfig costly_net() {
  NetModelConfig net;
  net.enabled = true;
  net.latency_s = 1e-3;
  net.bandwidth_Bps = 1e3;
  return net;
}

/// Rank r contributes 100 * (r + 1) bytes of value r + 1.
std::vector<std::uint8_t> block_of(int rank) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(100 * (rank + 1)),
                                   static_cast<std::uint8_t>(rank + 1));
}

TEST(CollectiveTest, AllgatherToReadersSkipsOthersInLockstep) {
  // Rank 0's block goes to readers {1, 3} only; every other rank's goes to
  // everyone. Rank 2 gets an empty frame from rank 0, and every rank still
  // gets exactly one frame from each other rank: the full allgather that
  // follows lines up, and nothing is left over. The clocks equal those of a
  // world that ran two full allgathers.
  const std::vector<int> everyone = {0, 1, 2, 3};
  const std::vector<int> odd = {1, 3};
  const auto clocks_after = [&](bool readers_only) {
    std::vector<double> clocks(4);
    Runtime runtime(4, costly_net());
    runtime.run([&](Comm& world) {
      const int me = world.rank();
      world.clock().advance(0.01 * me);  // staggered starts
      const auto got = readers_only
                           ? world.allgather(block_of(me), me == 0 ? odd : everyone)
                           : world.allgather(block_of(me));
      ASSERT_EQ(got.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        const bool skipped = readers_only && r == 0 && me != 1 && me != 3;
        EXPECT_EQ(got[r], skipped ? std::vector<std::uint8_t>{} : block_of(r))
            << "rank " << me << " from " << r;
      }
      const auto again = world.allgather(block_of(me));
      for (int r = 0; r < 4; ++r) EXPECT_EQ(again[r], block_of(r));
      EXPECT_FALSE(world.probe(kAnySource, kAnyTag));
      clocks[static_cast<std::size_t>(me)] = world.clock().now();
    });
    return clocks;
  };
  const auto full = clocks_after(false);
  const auto readers = clocks_after(true);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(full[r], 0.0);
    EXPECT_EQ(readers[r], full[r]) << "rank " << r;
  }
}

/// Plays every peer of a one-rank distributed Runtime: records each frame
/// the rank sends and answers it at once with an empty frame of the same tag
/// from its destination, so a collective completes on the calling thread.
class AnsweringTransport final : public Transport {
 public:
  void send(int dst_world_rank, OutboundFrame frame) override {
    Frame answer;
    answer.context_key = frame.context_key;
    answer.src_rank = frame.dst_rank;
    answer.dst_rank = frame.src_rank;
    answer.tag = frame.tag;
    sent.emplace_back(dst_world_rank, std::move(frame));
    sink_(std::move(answer));
  }
  const char* name() const override { return "answering"; }

  std::vector<std::pair<int, OutboundFrame>> sent;
};

TEST(CollectiveTest, AllgatherToReadersSendsOneBufferWithTheFullStamps) {
  // What rank 0 puts on the wire: one frame per member, readers {1, 3}
  // sharing one buffer, rank 2 an empty frame, and the clock charge and
  // arrival stamps of the full allgather.
  const auto sent_by_rank0 = [](bool readers_only, double* clock) {
    auto transport = std::make_unique<AnsweringTransport>();
    AnsweringTransport* answering = transport.get();
    Runtime runtime(4, 0, std::move(transport), costly_net());
    runtime.run([&](Comm& world) {
      const std::vector<int> odd = {1, 3};
      const auto got = readers_only ? world.allgather(block_of(0), odd)
                                    : world.allgather(block_of(0));
      EXPECT_EQ(got[0], readers_only ? std::vector<std::uint8_t>{} : block_of(0));
      *clock = world.clock().now();
    });
    return std::move(answering->sent);
  };
  double full_clock = 0.0;
  double readers_clock = 0.0;
  const auto full = sent_by_rank0(false, &full_clock);
  const auto readers = sent_by_rank0(true, &readers_clock);
  EXPECT_GT(full_clock, 0.0);
  EXPECT_EQ(readers_clock, full_clock);
  ASSERT_EQ(full.size(), 3u);
  ASSERT_EQ(readers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(readers[i].first, full[i].first);
    EXPECT_EQ(readers[i].second.arrival_vt, full[i].second.arrival_vt);
    const int dst = readers[i].first;
    if (dst == 2) {
      EXPECT_TRUE(readers[i].second.bytes().empty());
    } else {
      EXPECT_TRUE(std::ranges::equal(readers[i].second.bytes(), block_of(0)));
    }
  }
  // Readers 1 and 3 share one buffer; so do all three frames of the full one.
  EXPECT_EQ(readers[0].second.payload, readers[2].second.payload);
  EXPECT_EQ(full[0].second.payload, full[1].second.payload);
  EXPECT_EQ(full[1].second.payload, full[2].second.payload);
}

}  // namespace
}  // namespace cellgan::minimpi
