#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace cellgan::tensor {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t l = 0; l < a.cols(); ++l) acc += a.at(i, l) * b.at(l, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

void expect_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "at flat index " << i;
  }
}

TEST(OpsTest, MatmulSmallKnownValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

class MatmulShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(m * 100 + k * 10 + n);
  Tensor a = Tensor::randn(m, k, rng);
  Tensor b = Tensor::randn(k, n, rng);
  expect_near(matmul(a, b), naive_matmul(a, b), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeSweep,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 5, 3},
                                           std::tuple{4, 4, 4}, std::tuple{7, 3, 9},
                                           std::tuple{16, 32, 8},
                                           std::tuple{33, 17, 29}));

// "Threaded" here means what the trainer does: cell lanes call ops
// concurrently, each op running whole on its lane. Every lane must get the
// serial result bit for bit (no shared scratch, no partition effects).
template <typename Op>
std::vector<Tensor> on_lanes(const Op& op) {
  common::ThreadPool pool(3);
  std::vector<Tensor> results(3, Tensor(0, 0));
  pool.parallel_for(results.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t lane = begin; lane < end; ++lane) results[lane] = op();
  });
  return results;
}

void expect_same(const Tensor& lane, const Tensor& serial) {
  ASSERT_TRUE(lane.same_shape(serial));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(lane.data()[i], serial.data()[i]) << "element " << i;
  }
}

TEST(OpsTest, MatmulThreadedMatchesSerial) {
  common::Rng rng(123);
  Tensor a = Tensor::randn(64, 32, rng);
  Tensor b = Tensor::randn(32, 48, rng);
  const Tensor serial = matmul(a, b);
  for (const Tensor& lane : on_lanes([&] { return matmul(a, b); })) {
    expect_same(lane, serial);
  }
}

TEST(OpsTest, ElementwiseThreadedIsBitIdenticalToSerial) {
  common::Rng rng(321);
  Tensor a = Tensor::randn(200, 120, rng);
  Tensor b = Tensor::randn(200, 120, rng);
  const Tensor tanh_y = tanh_forward(a);
  const std::vector<Tensor> serial = {tanh_y, tanh_backward(b, tanh_y)};
  const auto ops = [&](std::size_t i) {
    return i == 0 ? tanh_forward(a) : tanh_backward(b, tanh_y);
  };
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (const Tensor& lane : on_lanes([&] { return ops(i); })) {
      expect_same(lane, serial[i]);
    }
  }
  Tensor axpy_serial = b;
  axpy(0.11f, a, axpy_serial);
  for (const Tensor& lane : on_lanes([&] {
         Tensor y = b;
         axpy(0.11f, a, y);
         return y;
       })) {
    expect_same(lane, axpy_serial);
  }
}

TEST(OpsTest, AddRowBiasThreadedIsBitIdenticalToSerial) {
  // Tall-skinny and short-wide shapes.
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{20000, 4},
                                   std::pair<std::size_t, std::size_t>{64, 512}}) {
    common::Rng rng(654);
    const Tensor a = Tensor::randn(rows, cols, rng);
    const Tensor bias = Tensor::randn(1, cols, rng);
    Tensor serial = a;
    add_row_bias(serial, bias);
    for (const Tensor& lane : on_lanes([&] {
           Tensor y = a;
           add_row_bias(y, bias);
           return y;
         })) {
      expect_same(lane, serial);
    }
  }
}

TEST(OpsTest, MatmulTnEqualsTransposedMatmul) {
  common::Rng rng(7);
  Tensor a = Tensor::randn(5, 3, rng);  // (k x m): treated as A^T
  Tensor b = Tensor::randn(5, 4, rng);
  Tensor at(3, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  expect_near(matmul_tn(a, b), naive_matmul(at, b), 1e-4f);
}

TEST(OpsTest, MatmulNtEqualsMatmulWithTransposedB) {
  common::Rng rng(9);
  Tensor a = Tensor::randn(4, 6, rng);
  Tensor b = Tensor::randn(5, 6, rng);  // (n x k): treated as B^T
  Tensor bt(6, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 6; ++j) bt.at(j, i) = b.at(i, j);
  }
  expect_near(matmul_nt(a, b), naive_matmul(a, bt), 1e-4f);
}

TEST(OpsTest, MatmulTnThreadedAndBlockedMatchesSerial) {
  // Big enough to cross the scalar kernel's l-block size.
  common::Rng rng(11);
  Tensor a = Tensor::randn(100, 24, rng);  // (k x m)
  Tensor b = Tensor::randn(100, 18, rng);
  const Tensor serial = matmul_tn(a, b);
  for (const Tensor& lane : on_lanes([&] { return matmul_tn(a, b); })) {
    expect_same(lane, serial);
  }
  Tensor at(24, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 24; ++j) at.at(j, i) = a.at(i, j);
  }
  expect_near(serial, naive_matmul(at, b), 1e-3f);
}

TEST(OpsTest, MatmulNtThreadedAndTiledMatchesSerial) {
  common::Rng rng(13);
  Tensor a = Tensor::randn(40, 33, rng);
  Tensor b = Tensor::randn(27, 33, rng);  // n = 27 exercises the 4-wide tail
  const Tensor serial = matmul_nt(a, b);
  for (const Tensor& lane : on_lanes([&] { return matmul_nt(a, b); })) {
    expect_same(lane, serial);
  }
  Tensor bt(33, 27);
  for (std::size_t i = 0; i < 27; ++i) {
    for (std::size_t j = 0; j < 33; ++j) bt.at(j, i) = b.at(i, j);
  }
  expect_near(serial, naive_matmul(a, bt), 1e-3f);
}

TEST(OpsDeathTest, MatmulShapeMismatchAborts) {
  Tensor a(2, 3), b(2, 2);
  EXPECT_DEATH((void)matmul(a, b), "precondition");
}

TEST(OpsTest, AxpyAccumulates) {
  Tensor x(1, 3, {1, 2, 3});
  Tensor y(1, 3, {10, 20, 30});
  axpy(0.5f, x, y);
  expect_near(y, Tensor(1, 3, {10.5f, 21.0f, 31.5f}));
}

TEST(OpsTest, AddRowBiasBroadcasts) {
  Tensor a(2, 3, {0, 0, 0, 1, 1, 1});
  Tensor bias(1, 3, {10, 20, 30});
  add_row_bias(a, bias);
  expect_near(a, Tensor(2, 3, {10, 20, 30, 11, 21, 31}));
}

TEST(OpsTest, ColSumSumsColumns) {
  Tensor a(3, 2, {1, 2, 3, 4, 5, 6});
  expect_near(col_sum(a), Tensor(1, 2, {9, 12}));
}

TEST(OpsTest, TanhForwardMatchesStd) {
  Tensor x(1, 4, {-2.0f, -0.5f, 0.0f, 1.5f});
  Tensor y = tanh_forward(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(y.data()[i], std::tanh(x.data()[i]), 1e-6f);
  }
}

TEST(OpsTest, SumAndMean) {
  Tensor a(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(a), 10.0f);
  EXPECT_FLOAT_EQ(mean(a), 2.5f);
}

TEST(OpsTest, BceWithLogitsMatchesManualComputation) {
  // loss = -[y log(sigma(z)) + (1-y) log(1 - sigma(z))]
  Tensor logits(2, 1, {0.5f, -1.0f});
  Tensor target(2, 1, {1.0f, 0.0f});
  auto [loss, grad] = bce_with_logits(logits, target);
  const double s0 = 1.0 / (1.0 + std::exp(-0.5));
  const double s1 = 1.0 / (1.0 + std::exp(1.0));
  const double expected = (-std::log(s0) - std::log(1.0 - s1)) / 2.0;
  EXPECT_NEAR(loss, expected, 1e-6);
  EXPECT_NEAR(grad.at(0, 0), (s0 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad.at(1, 0), s1 / 2.0, 1e-6);
}

TEST(OpsTest, BceWithLogitsStableForHugeLogits) {
  Tensor logits(2, 1, {1000.0f, -1000.0f});
  Tensor target(2, 1, {1.0f, 0.0f});
  auto [loss, grad] = bce_with_logits(logits, target);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5f);
  for (const float g : grad.data()) EXPECT_TRUE(std::isfinite(g));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  common::Rng rng(21);
  Tensor logits = Tensor::randn(5, 10, rng, 3.0f);
  Tensor probs = softmax(logits);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    float total = 0.0f;
    for (const float p : probs.row_span(r)) {
      EXPECT_GE(p, 0.0f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxInvariantToShift) {
  Tensor a(1, 3, {1.0f, 2.0f, 3.0f});
  Tensor b(1, 3, {101.0f, 102.0f, 103.0f});
  expect_near(softmax(a), softmax(b), 1e-6f);
}

TEST(OpsTest, SoftmaxCrossEntropyKnownCase) {
  Tensor logits(1, 3, {0.0f, 0.0f, 0.0f});
  auto [loss, grad] = softmax_cross_entropy(logits, {1});
  EXPECT_NEAR(loss, std::log(3.0f), 1e-5f);
  EXPECT_NEAR(grad.at(0, 0), 1.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(grad.at(0, 1), 1.0f / 3.0f - 1.0f, 1e-5f);
}

TEST(OpsTest, ArgmaxRows) {
  Tensor a(2, 3, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(a);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(OpsTest, ArgmaxTiePicksFirst) {
  Tensor a(1, 3, {4, 4, 4});
  EXPECT_EQ(argmax_rows(a)[0], 0u);
}

}  // namespace
}  // namespace cellgan::tensor
