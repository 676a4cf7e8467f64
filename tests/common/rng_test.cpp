#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace cellgan::common {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIsDeterministic) {
  const Rng parent(99);
  Rng f1 = parent.fork(7);
  Rng f2 = parent.fork(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(f1(), f2());
}

TEST(RngTest, SiblingForksAreIndependent) {
  const Rng parent(99);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1() == f2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(5), b(5);
  (void)a.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_int(n), n);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMomentsAreSane) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NormalScalesMeanAndStddev) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.03);
}

TEST(RngTest, LognormalIsPositiveWithUnitMeanParameterization) {
  Rng rng(23);
  const double sigma = 0.1;
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal(-0.5 * sigma * sigma, sigma);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(37);
  std::vector<std::uint32_t> v(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  std::vector<std::uint32_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, ShuffleOrderIsPinnedForever) {
  // The historical Fisher-Yates order for seed 1234, n = 16 — two consecutive
  // epochs from one stream. This is the ONE shuffle implementation in the
  // system: data::DataLoader::reshuffle, datastore::ShuffleService and data
  // dieting's row draw (data::subsample_rows) all delegate here, and every
  // pinned trajectory (and every past checkpoint's saved epoch order)
  // assumes these exact values.
  // If this test fails, the change broke replay compatibility — revert it.
  Rng rng(1234);
  std::vector<std::uint32_t> v(16);
  for (std::uint32_t i = 0; i < 16; ++i) v[i] = i;
  rng.shuffle(v);
  const std::vector<std::uint32_t> epoch1{0, 9,  7, 12, 11, 4,  2,  6,
                                          1, 14, 13, 8, 15, 5, 10, 3};
  EXPECT_EQ(v, epoch1);
  for (std::uint32_t i = 0; i < 16; ++i) v[i] = i;
  rng.shuffle(v);
  const std::vector<std::uint32_t> epoch2{10, 1,  7,  5, 6, 3,  13, 15,
                                          8,  14, 12, 2, 0, 11, 4,  9};
  EXPECT_EQ(v, epoch2);
}

TEST(RngTest, ShuffleActuallyShuffles) {
  Rng rng(41);
  std::vector<std::uint32_t> v(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  int fixed_points = 0;
  for (std::uint32_t i = 0; i < 100; ++i) fixed_points += (v[i] == i) ? 1 : 0;
  EXPECT_LT(fixed_points, 20);
}

/// Property sweep: every seed yields in-range uniforms and valid shuffles.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BasicInvariantsHoldForSeed) {
  Rng rng(GetParam());
  double prev = -1.0;
  bool all_equal = true;
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    if (i > 0 && u != prev) all_equal = false;
    prev = u;
  }
  EXPECT_FALSE(all_equal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xffffffffULL,
                                           0xdeadbeefcafeULL));

}  // namespace
}  // namespace cellgan::common
