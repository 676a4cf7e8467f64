#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cellgan::common {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsEverything) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroElementsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

/// Each index must be visited exactly once for any (threads, n) combination.
class ThreadPoolSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ThreadPoolSweep, EachIndexVisitedExactlyOnce) {
  const auto [threads, n] = GetParam();
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreadPoolSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 8),
                       ::testing::Values<std::size_t>(1, 2, 7, 64, 1000)));

TEST(ThreadPoolTest, EveryChunkIsNonEmptyAndInRange) {
  // 5 items over 4 participants: rounding the chunk size up would cover
  // [0,5) in three chunks and hand the last participant [6,5).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5);
  std::atomic<int> bad_chunks{0};
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    if (begin >= end || end > hits.size()) bad_chunks.fetch_add(1);
    for (std::size_t i = begin; i < end && i < hits.size(); ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(bad_chunks.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(50, [&](std::size_t begin, std::size_t end) {
      std::size_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u);
  }
}

TEST(ThreadPoolTest, WorkSmallerThanPoolStillCorrect) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A throwing chunk must not terminate the process or return while other
// chunks still run: every chunk finishes, the caller sees the exception, and
// the pool serves the next call normally.
void expect_throw_then_reuse(ThreadPool& pool, std::size_t throwing_begin) {
  std::vector<std::atomic<int>> hits(8);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t begin, std::size_t end) {
                                   // The other chunks are slow, so an early
                                   // return would leave their hits at 0.
                                   if (begin != throwing_begin) {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(20));
                                   }
                                   for (std::size_t i = begin; i < end; ++i) {
                                     hits[i].fetch_add(1);
                                   }
                                   if (begin == throwing_begin) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::atomic<std::size_t> visited{0};
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    visited.fetch_add(end - begin);
  });
  EXPECT_EQ(visited.load(), 8u);
}

TEST(ThreadPoolTest, WorkerChunkExceptionReachesCaller) {
  ThreadPool pool(4);  // chunks of 2: [0,2) [2,4) [4,6) on workers, [6,8) caller
  expect_throw_then_reuse(pool, 0);
}

TEST(ThreadPoolTest, CallerChunkExceptionWaitsForWorkers) {
  ThreadPool pool(4);
  expect_throw_then_reuse(pool, 6);
}

}  // namespace
}  // namespace cellgan::common
