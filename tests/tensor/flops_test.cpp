// The flop counter feeds the virtual-time model, so its accounting is a
// tested contract, not a debug aid.
#include "tensor/flops.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace cellgan::tensor {
namespace {

TEST(FlopsTest, CountAccumulatesAndExchanges) {
  exchange_thread_flops();
  count_flops(100);
  count_flops(50);
  EXPECT_EQ(thread_flops(), 150u);
  EXPECT_EQ(exchange_thread_flops(), 150u);
  EXPECT_EQ(thread_flops(), 0u);
}

TEST(FlopsTest, MatmulCharges2MKN) {
  exchange_thread_flops();
  common::Rng rng(1);
  const Tensor a = Tensor::randn(3, 5, rng);
  const Tensor b = Tensor::randn(5, 7, rng);
  (void)matmul(a, b);
  EXPECT_EQ(exchange_thread_flops(), 2ULL * 3 * 5 * 7);
}

TEST(FlopsTest, MatmulVariantsChargeSameWork) {
  common::Rng rng(2);
  const Tensor a = Tensor::randn(6, 4, rng);
  const Tensor b = Tensor::randn(6, 5, rng);
  exchange_thread_flops();
  (void)matmul_tn(a, b);  // (4x6)*(6x5)
  EXPECT_EQ(exchange_thread_flops(), 2ULL * 4 * 6 * 5);

  const Tensor c = Tensor::randn(3, 4, rng);
  const Tensor d = Tensor::randn(7, 4, rng);
  exchange_thread_flops();
  (void)matmul_nt(c, d);  // (3x4)*(4x7)
  EXPECT_EQ(exchange_thread_flops(), 2ULL * 3 * 4 * 7);
}

TEST(FlopsTest, ElementwiseChargesPerElement) {
  common::Rng rng(3);
  Tensor a = Tensor::randn(4, 4, rng);
  const Tensor bias = Tensor::randn(1, 4, rng);
  exchange_thread_flops();
  add_row_bias(a, bias);
  EXPECT_EQ(exchange_thread_flops(), 16u);
}

TEST(FlopsTest, ThreadedMatmulStillChargesCaller) {
  // Each cell lane harvests its own thread's counter, so a matmul must charge
  // the lane that calls it — and nothing to the thread that started the lanes.
  exchange_thread_flops();
  common::Rng rng(4);
  const Tensor a = Tensor::randn(32, 16, rng);
  const Tensor b = Tensor::randn(16, 8, rng);
  common::ThreadPool pool(3);
  std::vector<std::uint64_t> charged(3, 0);
  pool.parallel_for(charged.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t lane = begin; lane < end; ++lane) {
      exchange_thread_flops();
      (void)matmul(a, b);
      charged[lane] = exchange_thread_flops();
    }
  });
  for (const std::uint64_t flops : charged) EXPECT_EQ(flops, 2ULL * 32 * 16 * 8);
  EXPECT_EQ(exchange_thread_flops(), 0u);
}

TEST(FlopsTest, ScopedCounterIsolatesASection) {
  exchange_thread_flops();
  count_flops(100);  // outer accumulation in flight
  {
    ScopedFlopsCounter section;
    EXPECT_EQ(thread_flops(), 0u);  // section starts clean
    count_flops(7);
    EXPECT_EQ(section.taken(), 7u);
  }
  // Outer counter restored with the section's flops propagated on top.
  EXPECT_EQ(thread_flops(), 107u);
  exchange_thread_flops();
}

TEST(FlopsTest, ScopedCountersNest) {
  exchange_thread_flops();
  count_flops(1);
  {
    ScopedFlopsCounter outer;
    count_flops(2);
    {
      ScopedFlopsCounter inner;
      count_flops(4);
      EXPECT_EQ(inner.taken(), 4u);
    }
    EXPECT_EQ(outer.taken(), 6u);  // inner section propagated outward
  }
  EXPECT_EQ(thread_flops(), 7u);
  exchange_thread_flops();
}

TEST(FlopsTest, CountersAreThreadLocal) {
  exchange_thread_flops();
  count_flops(10);
  std::uint64_t other_thread_count = 99;
  std::thread t([&] {
    count_flops(5);
    other_thread_count = thread_flops();
  });
  t.join();
  EXPECT_EQ(other_thread_count, 5u);
  EXPECT_EQ(thread_flops(), 10u);
  exchange_thread_flops();
}

}  // namespace
}  // namespace cellgan::tensor
